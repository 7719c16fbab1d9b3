"""Cryptocurrency wallet address extraction from post text.

Candidates are maximal alphanumeric tokens, so an address glued to
other letters or digits never matches.  Bitcoin legacy addresses must
pass the Base58Check double-SHA256 checksum, segwit addresses the
bech32 checksum; Ethereum addresses are matched by syntax (0x + 40
hex digits).  `base58check_encode` builds the synthetic corpus's demo
wallet; the bech32 encoder that builds segwit test vectors is a test
oracle (`tests/oracles.py`).
"""

from __future__ import annotations

import csv
import hashlib
import re
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

CHAIN_BITCOIN = "bitcoin"
CHAIN_ETHEREUM = "ethereum"

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {ch: i for i, ch in enumerate(_B58_ALPHABET)}

_BECH32_CHARSET = "qpzry9x8gf2tvdw0s3jn54khce6mua7l"
_BECH32_GEN = (0x3B6A57B2, 0x26508E6D, 0x1EA119FA, 0x3D4233DD, 0x2A1462B3)

# Maximal alphanumeric tokens of the only shapes an address can take:
# "0x" and 40 more characters (Ethereum), 26-35 characters starting with
# 1 or 3 (Base58Check) and a "bc1" prefix in any case (bech32).  Tokens
# of any other shape never reach the classifiers.
_CANDIDATE_RE = re.compile(
    r"(?<![0-9A-Za-z])"
    r"(?:0x[0-9A-Za-z]{40}|[13][0-9A-Za-z]{25,34}|[bB][cC]1[0-9A-Za-z]*)"
    r"(?![0-9A-Za-z])"
)
_HEX_RE = re.compile(r"[0-9a-fA-F]{40}\Z")


@dataclass(frozen=True)
class WalletHit:
    address: str
    chain: str
    tweet_id: str
    user_id: str


def _double_sha256(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def base58check_encode(payload: bytes) -> str:
    """Append the 4-byte checksum and encode; leading zero bytes map
    to leading '1' characters."""
    raw = payload + _double_sha256(payload)[:4]
    num = int.from_bytes(raw, "big")
    digits = []
    while num:
        num, rem = divmod(num, 58)
        digits.append(_B58_ALPHABET[rem])
    pad = len(raw) - len(raw.lstrip(b"\x00"))
    return "1" * pad + "".join(reversed(digits))


def base58check_decode(text: str) -> bytes:
    """Return the payload (checksum stripped); raises ValueError on a
    bad character or checksum."""
    num = 0
    for ch in text:
        if ch not in _B58_INDEX:
            raise ValueError(f"invalid base58 character {ch!r}")
        num = num * 58 + _B58_INDEX[ch]
    body = num.to_bytes((num.bit_length() + 7) // 8, "big")
    pad = len(text) - len(text.lstrip("1"))
    raw = b"\x00" * pad + body
    if len(raw) < 5:
        raise ValueError("too short for a checksum")
    payload, checksum = raw[:-4], raw[-4:]
    if _double_sha256(payload)[:4] != checksum:
        raise ValueError("checksum mismatch")
    return payload


def _is_base58_bitcoin(token: str) -> bool:
    if not 26 <= len(token) <= 35 or token[0] not in "13":
        return False
    try:
        payload = base58check_decode(token)
    except ValueError:
        return False
    # Version byte plus a 20-byte hash.
    return len(payload) == 21


def _bech32_polymod(values: Iterable[int]) -> int:
    chk = 1
    for value in values:
        top = chk >> 25
        chk = (chk & 0x1FFFFFF) << 5 ^ value
        for i in range(5):
            if (top >> i) & 1:
                chk ^= _BECH32_GEN[i]
    return chk


def _bech32_hrp_expand(hrp: str) -> list[int]:
    return [ord(c) >> 5 for c in hrp] + [0] + [ord(c) & 31 for c in hrp]


def bech32_verify(address: str) -> tuple[str, list[int]] | None:
    """Return (hrp, data values) when the checksum holds, else None.
    Mixed-case strings are invalid."""
    if any(not 33 <= ord(c) <= 126 for c in address):
        return None
    if address.lower() != address and address.upper() != address:
        return None
    address = address.lower()
    pos = address.rfind("1")
    if pos < 1 or pos + 7 > len(address) or len(address) > 90:
        return None
    hrp, data_part = address[:pos], address[pos + 1 :]
    if any(c not in _BECH32_CHARSET for c in data_part):
        return None
    data = [_BECH32_CHARSET.index(c) for c in data_part]
    if _bech32_polymod(_bech32_hrp_expand(hrp) + data) != 1:
        return None
    return hrp, data


def _is_bech32_bitcoin(token: str) -> bool:
    if not token.lower().startswith("bc1"):
        return False
    decoded = bech32_verify(token)
    return decoded is not None and decoded[0] == "bc"


def _is_ethereum(token: str) -> bool:
    return (
        len(token) == 42
        and token.startswith("0x")
        and _HEX_RE.match(token[2:]) is not None
    )


def classify_address(token: str) -> str | None:
    if _is_ethereum(token):
        return CHAIN_ETHEREUM
    if _is_base58_bitcoin(token) or _is_bech32_bitcoin(token):
        return CHAIN_BITCOIN
    return None


def find_addresses(text: str) -> list[tuple[str, str]]:
    """All (address, chain) pairs in the text, in match order."""
    out = []
    for match in _CANDIDATE_RE.finditer(text):
        chain = classify_address(match.group())
        if chain is not None:
            out.append((match.group(), chain))
    return out


def extract_wallets(posts: Iterable[tuple[str, str, str]]) -> list[WalletHit]:
    """Scan (tweet_id, user_id, text) posts for wallet addresses, one hit
    per (address, tweet).  Each distinct text is scanned once."""
    hits: list[WalletHit] = []
    seen: set[tuple[str, str]] = set()
    found: dict[str, list[tuple[str, str]]] = {}
    for tweet_id, user_id, text in posts:
        addresses = found.get(text)
        if addresses is None:
            addresses = found[text] = find_addresses(text)
        for address, chain in addresses:
            key = (address, tweet_id)
            if key in seen:
                continue
            seen.add(key)
            hits.append(WalletHit(address=address, chain=chain, tweet_id=tweet_id, user_id=user_id))
    return hits


def write_wallet_csv(path: str | Path, hits: Sequence[WalletHit]) -> None:
    """One row per hit; the header is `WalletHit`'s fields."""
    names = [f.name for f in fields(WalletHit)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(map(attrgetter(*names), hits))


def read_wallet_csv(path: str | Path) -> list[WalletHit]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [WalletHit(**row) for row in csv.DictReader(fh)]
