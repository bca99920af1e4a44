"""The benchmark's own reference checks, independent of the package under test.

* Rank certificate: with weights ``A(X) = 1 + sum over children Y of
  A(Y) * (|D_Y| - 1)`` and rank ``r(o) = sum of A(X) * (|D_X| - 1 - pos_X(o))``
  (pos 0 = most preferred value under o's parent context), every improving
  flip raises r by at least 1.  So ``r(x) <= r(y)`` proves that x does not
  dominate y.
* Witness replay: a flip sequence proves x > y when it is a non-empty chain
  of sanctioned improving flips from y to x, or worsening flips from x to y,
  checked against the CPT rows of the spec.
"""

from __future__ import annotations

from netgen import NetSpec


def topo_order(spec: NetSpec) -> list[int]:
    """Parents-first order of the spec's variables (iterative Kahn)."""
    pending = [len(ps) for ps in spec.parents]
    children = spec.children()
    ready = [i for i, k in enumerate(pending) if k == 0]
    order: list[int] = []
    while ready:
        i = ready.pop()
        order.append(i)
        for c in children[i]:
            pending[c] -= 1
            if pending[c] == 0:
                ready.append(c)
    if len(order) != len(spec.names):
        raise ValueError("spec has a cycle")
    return order


class RankCertificate:
    def __init__(self, spec: NetSpec):
        self.spec = spec
        children = spec.children()
        weight = [0] * len(spec.names)
        for i in reversed(topo_order(spec)):
            weight[i] = 1 + sum(weight[c] * (len(spec.domains[c]) - 1) for c in children[i])
        self.weight = weight

    def rank(self, values: tuple[str, ...]) -> int:
        spec = self.spec
        return sum(
            w * (len(spec.domains[i]) - 1 - spec.ranking(values, i).index(values[i]))
            for i, w in enumerate(self.weight)
        )

    def refutes(self, x: tuple[str, ...], y: tuple[str, ...]) -> bool:
        """True when the ranks prove that x does not dominate y."""
        return self.rank(x) <= self.rank(y)


def replays(spec: NetSpec, x: tuple[str, ...], y: tuple[str, ...], witness) -> bool:
    """True iff ``witness`` (a FlipSequence) proves x > y against the rows."""
    if witness is None or not witness.flips:
        return False
    start = tuple(witness.start.values)
    if start == y:
        return _chain(spec, y, witness.flips, improving=True) == x
    if start == x:
        return _chain(spec, x, witness.flips, improving=False) == y
    return False


def _chain(spec: NetSpec, start: tuple[str, ...], flips, improving: bool):
    index = {name: i for i, name in enumerate(spec.names)}
    values = list(start)
    for flip in flips:
        i = index.get(flip.variable)
        if i is None or values[i] != flip.from_value:
            return None
        ranking = spec.ranking(values, i)
        if flip.to_value not in ranking:
            return None
        here, there = ranking.index(flip.from_value), ranking.index(flip.to_value)
        if (there < here) != improving or there == here:
            return None
        values[i] = flip.to_value
    return tuple(values)
