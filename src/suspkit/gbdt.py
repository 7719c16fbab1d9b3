"""Gradient-boosted decision trees for binary classification.

Histogram-based: features are quantile-binned once (at most 256 bins,
uint8 codes; the cut values are a plain list of one sorted array per
feature) and split gains use second-order statistics of the logistic
loss.  Split thresholds are stored as real feature values chosen so
that binned decisions during training and float comparisons at
prediction time agree exactly on the training data.  A tree is five
node arrays, and its JSON keys are their field names.

Fitting grows each tree level-wise to a depth cap, with one histogram
pass per level (LightGBM, Ke et al., NeurIPS 2017, without histogram
subtraction).  A node's histogram is one row of slots holding every
feature's own bins, so a single bincount over codes + feature offset +
node * width fills the gradient histogram of every frontier node and
every feature, and a second one the hessian histogram.  Totals and
running sums follow per block of features with equal bin counts; gains
are computed only at bins that hold rows (an empty bin repeats the gain
of the bin before it) and one segmented argmax per level picks each
node's split.  Ties go to the first feature, then to the first bin.  A
feature's totals are summed over its own bins only, and the parent term
squares them as a scalar power would, so every gain keeps the bits of a
per-node, per-feature search.

Prediction walks each tree in turn, moving every row down it one level
at a time (x <= threshold goes left; NaN fails the test and goes
right), and adds learning_rate times the value of the leaf reached to
base_score, tree by tree in order.

Attributions (`shap_values`) are exact interventional TreeSHAP values
of the margin, computed leaf by leaf from each row's path masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

_MAX_BINS = 256
# A child must hold at least this much hessian (LightGBM's
# min_sum_hessian_in_leaf default).
_MIN_CHILD_HESS = 1e-3
# Leaves with at most this many path features are attributed through a
# (2^k, 2^k * k) table of pair values (4 MB at k = 8); leaves with more
# pair every explained row with every background row instead.
_TABLE_MAX_FEATURES = 8
# Elements of the largest intermediate array per block of TreeSHAP
# leaves, and per block of rows explained against a block of leaves.
_SHAP_BLOCK = 1 << 20
_SHAP_ROW_BLOCK = 1 << 16


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def log_loss(y: np.ndarray, proba: np.ndarray) -> float:
    p = np.clip(proba, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _quantile_uppers(column: np.ndarray) -> np.ndarray:
    # Cut points are data quantiles; code b covers values <= uppers[b],
    # the last bin is unbounded above.
    qs = np.linspace(0.0, 1.0, _MAX_BINS + 1)[1:-1]
    return np.unique(np.quantile(column, qs))


# The dtype of each `Tree` field's (n_nodes,) array.
_TREE_DTYPES = {"feature": np.int32, "threshold": np.float64, "left": np.int32,
                "right": np.int32, "value": np.float64}


@dataclass
class Tree:
    """Array-of-nodes binary tree; feature -1 marks a leaf.  Its JSON
    form maps each field name to the field's list of node values."""

    feature: np.ndarray
    threshold: np.ndarray  # go left when x <= threshold
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # meaningful at leaves

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Tree":
        return cls(**{f.name: np.asarray(data[f.name], dtype=_TREE_DTYPES[f.name])
                      for f in fields(cls)})


@dataclass
class _BinLayout:
    """Histogram geometry shared by every tree of one fit.

    A node's histogram is one row of `width` slots holding each feature's
    own bins.  The features are sorted by bin count, so features with
    equal counts form one (features, n_bins) block.  Candidate splits are
    numbered by feature, then bin.
    """

    width: int  # slots per node: the sum of all bin counts
    offset: np.ndarray  # (d,) first slot of each feature
    position: np.ndarray  # (d,) rank of each feature in the block order
    blocks: list[tuple[int, slice, slice]]  # (n_bins, ranks, slots) per block
    split: np.ndarray  # (width,) candidate number of each slot, -1 for a last bin
    leads: np.ndarray  # (width,) bool, the slot is a candidate's bin 0
    feature: np.ndarray  # (splits,) candidate feature
    split_bin: np.ndarray  # (splits,) candidate bin; codes <= bin go left

    @classmethod
    def of(cls, uppers: list[np.ndarray]) -> "_BinLayout":
        n_bins = np.array([len(u) + 1 for u in uppers], dtype=np.int64)
        by_bins = np.argsort(n_bins, kind="stable")
        position = np.empty_like(n_bins)
        position[by_bins] = np.arange(n_bins.size)
        offset = np.empty_like(n_bins)
        offset[by_bins] = np.cumsum(n_bins[by_bins]) - n_bins[by_bins]
        counts, starts = np.unique(n_bins[by_bins], return_index=True)
        ends = np.append(starts[1:], n_bins.size)
        blocks = [
            (int(c), slice(a, b), slice(offset[by_bins[a]], offset[by_bins[a]] + c * (b - a)))
            for c, a, b in zip(counts, starts, ends)
        ]
        # The last bin is no split: it would send every row left.
        feature, split_bin = np.nonzero(np.arange(n_bins.max(initial=1)) < (n_bins - 1)[:, None])
        split = np.full(int(n_bins.sum()), -1)
        split[offset[feature] + split_bin] = np.arange(feature.size)
        leads = np.zeros(split.size, dtype=bool)
        leads[offset[feature[split_bin == 0]]] = True
        return cls(width=split.size, offset=offset, position=position, blocks=blocks,
                   split=split, leads=leads, feature=feature, split_bin=split_bin)


def _scalar_square(x: np.ndarray) -> np.ndarray:
    """x**2 as numpy float64 scalars compute it (libm pow); the array
    power (x*x) differs from it in the last bit for ~0.1% of values."""
    return (x.astype(object) ** 2).astype(np.float64)


def _best_splits(
    codes: np.ndarray,
    node_rows: list[np.ndarray],
    g: np.ndarray,
    h: np.ndarray,
    layout: _BinLayout,
    lam: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gain, feature, split bin) per node, one histogram pass for all."""
    k, d = len(node_rows), codes.shape[1]
    if not layout.feature.size:
        return np.full(k, -np.inf), np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    rows = np.concatenate(node_rows)
    node_of_row = np.repeat(np.arange(k), [r.size for r in node_rows])
    slot = (codes[rows] + (layout.offset + node_of_row[:, None] * layout.width)).ravel()
    # (g|h, node, slot)
    hist = np.stack([
        np.bincount(slot, weights=np.repeat(w[rows], d), minlength=k * layout.width)
        for w in (g, h)
    ]).reshape(2, k, layout.width)
    # Totals over each feature's own bins (pairwise summation rounds
    # differently over a zero-padded row) and running sums per feature.
    total = np.empty((2, k, d))
    running = np.empty_like(hist)
    for n_bins, ranks, slots in layout.blocks:
        shape = (2, k, ranks.stop - ranks.start, n_bins)
        block = hist[:, :, slots].reshape(shape)
        np.sum(block, axis=-1, out=total[:, :, ranks])
        np.cumsum(block, axis=-1, out=running[:, :, slots].reshape(shape))
    total = total[:, :, layout.position]
    # Only bins holding rows change the running sums: an empty bin repeats
    # the gain of the bin before it, which wins the tie.  Bin 0 stands for
    # the empty bins that lead a feature.
    candidate = (hist[0] != 0) | (hist[1] != 0)
    candidate &= layout.split >= 0
    candidate |= layout.leads
    node, slot = np.nonzero(candidate)
    split = layout.split[slot]
    feature = layout.feature[split]
    pair = node * d + feature
    # 1-D takes from the flat g and h halves: cheaper than one 2-D index.
    flat = node * layout.width + slot
    gl, hl = (half.take(flat) for half in running.reshape(2, -1))
    gr, hr = (half.take(pair) for half in total.reshape(2, -1))
    gr -= gl
    hr -= hl
    # gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent, in place.  An
    # empty child at lam = 0 gives 0/0; the hessian floor makes it -inf,
    # and no gain it keeps can be NaN.
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = _scalar_square(total[0]) / (total[1] + lam)
        gain = np.square(gl)
        gain /= hl + lam
        np.square(gr, out=gr)
        gr /= hr + lam
        gain += gr
        gain -= parent.take(pair)
    gain[(hl < _MIN_CHILD_HESS) | (hr < _MIN_CHILD_HESS)] = -np.inf
    # The first maximum in candidate order: the first feature's first bin
    # among equal gains.  Every node holds candidates (bin 0 of each).
    starts = np.searchsorted(node, np.arange(k))
    best_gain = np.maximum.reduceat(gain, starts)
    best = np.minimum.reduceat(np.where(gain == best_gain[node], split, layout.feature.size), starts)
    return best_gain, layout.feature[best], layout.split_bin[best]


def shap_inputs(X: np.ndarray, background: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both as float64, checked for the shapes `shap_values` needs."""
    X = np.asarray(X, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    if X.ndim != 2 or background.ndim != 2 or background.shape[1] != X.shape[1]:
        raise ValueError("X and background must be 2-D with equal widths")
    if not background.shape[0]:
        raise ValueError("background must hold at least one row")
    return X, background


def _leaf_paths(tree: Tree) -> list[tuple[int, dict[int, tuple[float, float]]]]:
    """(leaf node id, {feature: (lo, hi)}) per leaf.  A row reaches the
    leaf iff, for every feature on its path, `x <= lo` fails and
    `x <= hi` holds; NaN bounds stand for no such test."""
    paths = []
    stack: list[tuple[int, dict[int, tuple[float, float]]]] = [(0, {})]
    while stack:
        node, bounds = stack.pop()
        f = int(tree.feature[node])
        if f < 0:
            paths.append((node, bounds))
            continue
        t = float(tree.threshold[node])
        lo, hi = bounds.get(f, (np.nan, np.nan))
        stack.append((int(tree.right[node]), {**bounds, f: (np.fmax(lo, t), hi)}))
        stack.append((int(tree.left[node]), {**bounds, f: (lo, np.fmin(hi, t))}))
    return paths


def _path_masks(X: np.ndarray, feature: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(rows, leaves) k-bit masks: bit i is set when the row's value of
    the leaf's i-th path feature passes every test the path puts on it,
    by decision_function's rule (x <= threshold goes left, NaN goes right)."""
    x = X[:, feature]  # (rows, leaves, k)
    passes = ~(x <= lo) & ((x <= hi) | np.isnan(hi))
    return passes @ (1 << np.arange(feature.shape[1]))


def _pair_phi(sx: np.ndarray, sb: np.ndarray, k: int) -> np.ndarray:
    """Shapley values of a leaf's k path features, per unit of leaf value,
    for the game v(S) = [the hybrid (x on S, b elsewhere) reaches the
    leaf], from the path masks sx of x and sb of b (broadcast): (..., k).

    The hybrid reaches the leaf iff every feature passes for x or for b.
    Then S must hold A = {passes for x only} and miss B = {passes for b
    only}, and the game is the unanimity-style 1[A in S, B out of S]:
    each i in A gets (|A|-1)!|B|!/(|A|+|B|)!, each i in B loses
    |A|!(|B|-1)!/(|A|+|B|)!."""
    fact = [math.factorial(j) for j in range(2 * k + 1)]
    gain = np.zeros((k + 1, k + 1))
    loss = np.zeros((k + 1, k + 1))
    for a in range(k + 1):
        for b in range(k + 1 - a):
            if a:
                gain[a, b] = fact[a - 1] * fact[b] / fact[a + b]
            if b:
                loss[a, b] = fact[a] * fact[b - 1] / fact[a + b]
    bits = 1 << np.arange(k)
    sx, sb = np.broadcast_arrays(sx, sb)
    reached = (sx | sb) == (1 << k) - 1
    # On a reached pair, A is the complement of sb and B that of sx.
    a = np.where(reached, k - np.bitwise_count(sb), 0)
    b = np.where(reached, k - np.bitwise_count(sx), 0)
    in_a = (sb[..., None] & bits) == 0
    in_b = (sx[..., None] & bits) == 0
    return gain[a, b][..., None] * in_a - loss[a, b][..., None] * in_b


class GbdtClassifier:
    """Boosted trees over binned features with a logistic link."""

    def __init__(
        self,
        *,
        n_rounds: int,
        learning_rate: float,
        max_depth: int,
        reg_lambda: float,
    ):
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.trees: list[Tree] = []
        self.base_score = 0.0
        self.train_loss: list[float] = []
        self._split_gain: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GbdtClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be (n, d) with matching y")
        if not np.isfinite(X).all():
            raise ValueError("X must be finite (impute first)")
        if not np.isin(y, (0.0, 1.0)).all():
            raise ValueError("labels must be 0 or 1")
        n, d = X.shape
        uppers = [_quantile_uppers(column) for column in X.T]
        codes = np.empty(X.shape, dtype=np.uint8)
        for j, u in enumerate(uppers):
            codes[:, j] = np.searchsorted(u, X[:, j])
        layout = _BinLayout.of(uppers)

        pos_rate = np.clip(y.mean(), 1e-6, 1.0 - 1e-6)
        self.base_score = float(np.log(pos_rate / (1.0 - pos_rate)))
        raw = np.full(n, self.base_score)
        self.trees = []
        self.train_loss = []
        self._split_gain = np.zeros(d)

        for _ in range(self.n_rounds):
            p = sigmoid(raw)
            g = p - y
            h = p * (1.0 - p)
            tree, leaves = self._grow_tree(codes, uppers, layout, g, h)
            self.trees.append(tree)
            for rows, value in leaves:
                raw[rows] += self.learning_rate * value
            self.train_loss.append(log_loss(y, sigmoid(raw)))
        return self

    def _grow_tree(
        self, codes: np.ndarray, uppers: list[np.ndarray], layout: _BinLayout,
        g: np.ndarray, h: np.ndarray,
    ) -> tuple[Tree, list[tuple[np.ndarray, float]]]:
        """The tree, and (rows, value) of each of its leaves.  A split
        sends codes <= bin left and keeps the feature's cut value
        `uppers[j][bin]` as its threshold.  The nodes grow as one table of
        [feature, threshold, left, right, value] records, in Tree's field
        order."""
        lam = self.reg_lambda
        blank = (-1, 0.0, -1, -1, 0.0)
        nodes = [list(blank)]
        leaves: list[tuple[np.ndarray, float]] = []

        def settle(node: int, rows: np.ndarray) -> None:
            nodes[node][4] = -g[rows].sum() / (h[rows].sum() + lam)
            leaves.append((rows, nodes[node][4]))

        frontier = [(0, np.arange(codes.shape[0]))]  # (node id, rows) of one level
        for depth in range(self.max_depth + 1):
            splittable = []
            for node, rows in frontier:
                if depth < self.max_depth and rows.size > 1:
                    splittable.append((node, rows))
                else:
                    settle(node, rows)
            if not splittable:
                break
            best = _best_splits(codes, [rows for _, rows in splittable], g, h, layout, lam)
            frontier = []
            # Python ints: under NumPy 2 an int64 bin promotes the uint8 codes.
            for (node, rows), gain, j, s in zip(splittable, *(a.tolist() for a in best)):
                if gain <= 0.0:
                    settle(node, rows)
                    continue
                self._split_gain[j] += gain
                go_left = codes[rows, j] <= s
                nodes[node][:4] = j, uppers[j][s], len(nodes), len(nodes) + 1
                frontier += [(len(nodes), rows[go_left]), (len(nodes) + 1, rows[~go_left])]
                nodes += [list(blank), list(blank)]

        return Tree.from_dict(dict(zip([f.name for f in fields(Tree)], zip(*nodes)))), leaves

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise ValueError("model not fitted")
        X = np.asarray(X, dtype=np.float64)
        raw = np.full(X.shape[0], self.base_score)
        for tree in self.trees:
            node = np.zeros(X.shape[0], dtype=np.int32)
            live = np.arange(X.shape[0])  # rows still at a split node
            while live.size:
                at = node[live]
                split = tree.feature[at] >= 0
                live, at = live[split], at[split]
                go_left = X[live, tree.feature[at]] <= tree.threshold[at]
                node[live] = np.where(go_left, tree.left[at], tree.right[at])
            raw += self.learning_rate * tree.value[node]
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(X))

    def shap_values(self, X: np.ndarray, background: np.ndarray) -> np.ndarray:
        """Interventional TreeSHAP (Lundberg et al., Nature MI 2020):
        exact Shapley values of the margin, (rows, features), for the game
        v(S) = mean over background rows b of f(x on S, b elsewhere).

        The game is a sum over leaves (_pair_phi), so each leaf needs only
        the path masks of the rows.  The background masks are counted
        into 2^k patterns and contracted with the table of pair values
        once per leaf; on paths longer than the table takes, each row is
        paired with each background row.  base_score and single-leaf
        trees add the same constant to every hybrid, so they go to the
        base value only.
        """
        if not self.trees:
            raise ValueError("model not fitted")
        X, background = shap_inputs(X, background)
        n, d = X.shape
        r = background.shape[0]
        by_k: dict[int, list[tuple[list[int], tuple, tuple, float]]] = {}
        for tree in self.trees:
            for node, bounds in _leaf_paths(tree):
                if bounds:
                    lo, hi = zip(*bounds.values())
                    by_k.setdefault(len(bounds), []).append(
                        (list(bounds), lo, hi, self.learning_rate * tree.value[node]))
        phi = np.zeros((n, d))
        for k, leaves in sorted(by_k.items()):
            feature, lo, hi, value = (np.asarray(a) for a in zip(*leaves))
            # A block of leaves holds (r, leaves, k) background values and
            # (leaves, 2^k, k) summed pair values; a block of rows
            # (rows, paired, leaves, k) pair values.
            if k <= _TABLE_MAX_FEATURES:
                patterns = np.arange(1 << k)
                table = _pair_phi(patterns[None, :], patterns[:, None], k).reshape(1 << k, -1)
                leaf_width, paired = max(r, 1 << k), 1
            else:
                table = None
                leaf_width, paired = r, r
            step = max(1, _SHAP_BLOCK // (k * leaf_width))
            for s in range(0, len(leaves), step):
                leaf = slice(s, s + step)
                sb = _path_masks(background, feature[leaf], lo[leaf], hi[leaf])  # (r, L)
                n_leaves = sb.shape[1]
                scale = value[leaf] / r
                if table is not None:
                    # (leaves, sx, k): summed pair values over the background.
                    counts = np.bincount((sb + (np.arange(n_leaves) << k)).ravel(),
                                         minlength=n_leaves << k).reshape(n_leaves, -1)
                    summed = (counts @ table).reshape(n_leaves, 1 << k, k)
                # Each row's slots get one addition per block of leaves,
                # whatever the block of rows.
                rows_per_block = max(1, _SHAP_ROW_BLOCK // (n_leaves * k * paired))
                for start in range(0, n, rows_per_block):
                    rows = slice(start, min(n, start + rows_per_block))
                    sx = _path_masks(X[rows], feature[leaf], lo[leaf], hi[leaf])  # (rows, L)
                    if table is not None:
                        contrib = summed[np.arange(n_leaves), sx]
                    else:
                        contrib = _pair_phi(sx[:, None, :], sb[None, :, :], k).sum(axis=1)
                    contrib *= scale[:, None]
                    slot = np.arange(len(sx))[:, None, None] * d + feature[leaf]
                    phi[rows] += np.bincount(slot.ravel(), weights=contrib.ravel(),
                                             minlength=len(sx) * d).reshape(-1, d)
        return phi

    def feature_importance(self) -> np.ndarray:
        """Total split gain per feature of this object's own fit,
        normalized to sum to 1; model.json does not keep the gains."""
        if self._split_gain is None:
            raise ValueError("model not fitted")
        total = self._split_gain.sum()
        if total == 0.0:
            return np.zeros_like(self._split_gain)
        return self._split_gain / total

    def to_dict(self) -> dict:
        return {
            "kind": "gbdt",
            "n_rounds": self.n_rounds,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "reg_lambda": self.reg_lambda,
            "base_score": self.base_score,
            "trees": [tree.to_dict() for tree in self.trees],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GbdtClassifier":
        model = cls(
            n_rounds=data["n_rounds"],
            learning_rate=data["learning_rate"],
            max_depth=data["max_depth"],
            reg_lambda=data["reg_lambda"],
        )
        model.base_score = data["base_score"]
        model.trees = [Tree.from_dict(t) for t in data["trees"]]
        return model
