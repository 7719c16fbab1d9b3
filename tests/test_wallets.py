import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspkit.wallets import (
    WalletHit,
    base58check_decode,
    base58check_encode,
    bech32_verify,
    classify_address,
    extract_wallets,
    find_addresses,
    read_wallet_csv,
    write_wallet_csv,
)

from oracles import (
    GENESIS_BTC,
    SEGWIT_BTC,
    bech32_encode,
    fresh_btc_address,
    fresh_eth_address,
    fresh_segwit_address,
    oracle_base58check,
)


class TestBase58Check:
    def test_known_address_decodes(self):
        payload = base58check_decode(GENESIS_BTC)
        assert len(payload) == 21
        assert payload[0] == 0

    def test_oracle_encoder_gives_the_genesis_address(self):
        payload = bytes.fromhex("0062e907b15cbf27d5425399ebf6f0fb50ebb88f18")
        assert oracle_base58check(payload) == GENESIS_BTC
        assert base58check_decode(GENESIS_BTC) == payload

    @settings(max_examples=50, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=30))
    def test_encoder_matches_the_oracle(self, payload):
        assert base58check_encode(payload) == oracle_base58check(payload)

    def test_encode_decode_roundtrip(self):
        payload = b"\x00" + bytes(range(20))
        assert base58check_decode(base58check_encode(payload)) == payload

    def test_leading_zero_bytes_become_ones(self):
        encoded = base58check_encode(b"\x00\x00\x01")
        assert encoded.startswith("11")

    def test_corrupted_checksum_rejected(self):
        corrupted = GENESIS_BTC[:-1] + ("2" if GENESIS_BTC[-1] != "2" else "3")
        with pytest.raises(ValueError):
            base58check_decode(corrupted)

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError):
            base58check_decode("0OIl")

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            base58check_decode("11")

    @settings(max_examples=50, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=30))
    def test_roundtrip_property(self, payload):
        assert base58check_decode(base58check_encode(payload)) == payload


class TestBech32:
    def test_known_address_verifies(self):
        decoded = bech32_verify(SEGWIT_BTC)
        assert decoded is not None
        assert decoded[0] == "bc"

    def test_uppercase_form_verifies(self):
        assert bech32_verify(SEGWIT_BTC.upper()) is not None

    def test_mixed_case_rejected(self):
        mixed = SEGWIT_BTC[:-4] + SEGWIT_BTC[-4:].upper()
        assert bech32_verify(mixed) is None

    def test_corrupted_data_rejected(self):
        flip = "q" if SEGWIT_BTC[-1] != "q" else "p"
        assert bech32_verify(SEGWIT_BTC[:-1] + flip) is None

    def test_missing_separator_rejected(self):
        assert bech32_verify("qqqqqqqqqq") is None

    def test_oracle_encodes_the_published_vector(self):
        # BIP-173: witness version 0 and this 20-byte program give SEGWIT_BTC.
        program = bytes.fromhex("751e76e8199196d454941c45d1b3a323f1433bd6")
        bits = int.from_bytes(program, "big")
        groups = [(bits >> 5 * i) & 31 for i in reversed(range(len(program) * 8 // 5))]
        assert bech32_encode("bc", [0] + groups) == SEGWIT_BTC

    @settings(max_examples=50, deadline=None)
    @given(data=st.lists(st.integers(0, 31), min_size=6, max_size=40))
    def test_encode_verify_roundtrip(self, data):
        address = bech32_encode("bc", data)
        decoded = bech32_verify(address)
        assert decoded is not None
        hrp, values = decoded
        # verify returns the raw data part, checksum values included
        assert hrp == "bc"
        assert values[:-6] == data


class TestClassify:
    def test_bitcoin_legacy(self):
        assert classify_address(GENESIS_BTC) == "bitcoin"
        assert classify_address(fresh_btc_address(b"x", version=5)) == "bitcoin"

    def test_bitcoin_segwit(self):
        assert classify_address(SEGWIT_BTC) == "bitcoin"

    def test_ethereum(self):
        assert classify_address(fresh_eth_address(b"y")) == "ethereum"

    def test_plain_word_rejected(self):
        assert classify_address("donations") is None

    def test_eth_wrong_length_rejected(self):
        assert classify_address("0x" + "a" * 39) is None
        assert classify_address("0x" + "a" * 41) is None

    def test_eth_non_hex_rejected(self):
        assert classify_address("0x" + "g" * 40) is None

    def test_bad_checksum_rejected(self):
        broken = GENESIS_BTC[:-1] + ("2" if GENESIS_BTC[-1] != "2" else "3")
        assert classify_address(broken) is None

    def test_other_hrp_rejected(self):
        assert classify_address(bech32_encode("tb", [0] * 10)) is None


class TestFindAddresses:
    def test_token_boundaries(self):
        eth = fresh_eth_address(b"z")
        assert find_addresses(f"send to {eth} now") == [(eth, "ethereum")]
        assert find_addresses(f"send to {eth}!") == [(eth, "ethereum")]
        # glued to other alphanumerics no longer matches
        assert find_addresses(f"abc{eth}") == []
        assert find_addresses(f"{eth}9") == []

    def test_multiple_hits_in_order(self):
        eth = fresh_eth_address(b"a")
        hits = find_addresses(f"{GENESIS_BTC} then {eth}")
        assert hits == [(GENESIS_BTC, "bitcoin"), (eth, "ethereum")]


def token_scan(text):
    """Every maximal alphanumeric token through the classifiers: the
    reference for the shape-filtered candidate scan."""
    out = []
    for match in re.finditer(r"[0-9A-Za-z]+", text):
        chain = classify_address(match.group())
        if chain is not None:
            out.append((match.group(), chain))
    return out


class TestCandidateScan:
    PIECES = [
        GENESIS_BTC, SEGWIT_BTC, SEGWIT_BTC.upper(), "bC1" + SEGWIT_BTC[3:],
        fresh_btc_address(b"p2pkh"), fresh_btc_address(b"p2sh", version=5),
        fresh_segwit_address(b"s"), fresh_eth_address(b"e"),
        fresh_eth_address(b"E").upper().replace("0X", "0x"),
        "0X" + fresh_eth_address(b"x")[2:], "0x" + "g" * 40, "0x" + "a" * 39,
        "1" * 25, "1" * 26, "3" * 35, "3" * 36, "bc1", "BC1", "free", "crypto",
        "", " ", "!", "-", "é", "9", "x", "0x", "bc", "\n",
    ]

    def test_matches_token_scan(self):
        rng = random.Random(5)
        for _ in range(3000):
            text = "".join(rng.choice(self.PIECES) for _ in range(rng.randint(0, 8)))
            assert find_addresses(text) == token_scan(text), text

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="0123bcBCxX ae!", max_size=80))
    def test_matches_token_scan_on_short_alphabets(self, text):
        assert find_addresses(text) == token_scan(text)


class TestExtractWallets:
    def test_takes_id_user_text_triples(self):
        eth = fresh_eth_address(b"b")
        posts = [("t1", "u1", f"pay {eth}"), ("t2", "u2", f"also {eth}")]
        hits = extract_wallets(posts)
        assert hits == [
            WalletHit(eth, "ethereum", "t1", "u1"),
            WalletHit(eth, "ethereum", "t2", "u2"),
        ]

    def test_duplicate_address_in_one_post_deduplicated(self):
        eth = fresh_eth_address(b"c")
        hits = extract_wallets([("t1", "u1", f"{eth} and again {eth}")])
        assert len(hits) == 1

    def test_csv_roundtrip(self, tmp_path):
        hits = [WalletHit(GENESIS_BTC, "bitcoin", "t9", "u9")]
        path = tmp_path / "wallets.csv"
        write_wallet_csv(path, hits)
        assert read_wallet_csv(path) == hits
