"""Catalog front and dominance-layered sorting."""

import random

import pytest

from cpnet import (
    CatalogRow,
    CPNetError,
    Outcome,
    SearchConfig,
    all_outcomes,
    dominates,
    oracle_closure,
    parse_catalog,
    pareto_front,
    sort_catalog,
)
from cpnet import search
from cpnet.search import _Core
from helpers import all_pairs, outcome, random_net, random_tree


def _rows(net, *pairs):
    return [CatalogRow(identifier, outcome(net, text)) for identifier, text in pairs]


class TestParetoFront:
    def test_total_order_front(self, chain2):
        rows = _rows(
            chain2,
            ("r1", "A=a,B=b"),
            ("r2", "A=a,B=bbar"),
            ("r3", "A=abar,B=bbar"),
            ("r4", "A=abar,B=b"),
        )
        report = pareto_front(chain2, rows)
        assert report.nondominated == ["r1"]
        assert {loser for loser, _ in report.dominated} == {"r2", "r3", "r4"}
        assert report.undecided == []

    def test_incomparable_pair_both_survive(self, chain3):
        rows = _rows(
            chain3,
            ("p", "A=a,B=bbar,C=c"),
            ("q", "A=abar,B=bbar,C=cbar"),
        )
        report = pareto_front(chain3, rows)
        assert sorted(report.nondominated) == ["p", "q"]
        assert report.dominated == []

    def test_single_row_runs_no_comparisons(self, chain2):
        report = pareto_front(chain2, _rows(chain2, ("only", "A=a,B=bbar")))
        assert report.nondominated == ["only"]
        assert report.comparisons_run == 0

    def test_duplicates_collapse(self, chain2):
        rows = _rows(
            chain2,
            ("d1", "A=a,B=bbar"),
            ("d2", "A=a,B=bbar"),
            ("w", "A=a,B=b"),
        )
        report = pareto_front(chain2, rows)
        assert report.nondominated == ["w"]
        losers = dict(report.dominated)
        assert losers == {"d1": "w", "d2": "w"}

    def test_witnessed_losers_verify(self, chain3):
        catalog = [
            CatalogRow(f"r{i}", o)
            for i, o in enumerate(
                dict.fromkeys(o for o, _ in all_pairs(chain3))
            )
        ]
        report = pareto_front(chain3, catalog)
        by_id = {row.identifier: row.outcome for row in catalog}
        from cpnet import DOMINATES, dominates

        for loser, winner in report.dominated:
            assert dominates(chain3, by_id[winner], by_id[loser]).kind == DOMINATES
        assert not (set(report.nondominated) & {l for l, _ in report.dominated})

    @pytest.mark.parametrize("name", ["chain3", "polytree8"])  # committed, then not
    def test_pass_builds_no_witness(self, name, request, monkeypatch):
        net = request.getfixturevalue(name)
        rows = [CatalogRow(f"r{i}", o) for i, o in enumerate(all_outcomes(net))]
        assert dominates(net, rows[0].outcome, rows[-1].outcome).witness is not None

        def refuse(what):
            def build(*args, **kwargs):
                raise AssertionError(f"the catalog pass built {what}")
            return build

        monkeypatch.setattr(_Core, "path", refuse("a witness"))
        monkeypatch.setattr(search, "Verdict", refuse("a verdict"))
        monkeypatch.setattr(search, "SearchStats", refuse("search stats"))
        assert pareto_front(net, rows).dominated
        assert len(sort_catalog(net, rows)) > 1
        cut = SearchConfig(budget=1)  # a budget that cuts the searched pairs
        assert pareto_front(net, rows, cut).undecided
        assert sort_catalog(net, rows, cut)

    def test_equal_rank_pair_needs_no_search(self, chain3):
        rows = _rows(
            chain3,
            ("p", "A=a,B=bbar,C=c"),
            ("q", "A=abar,B=bbar,C=cbar"),
        )
        report = pareto_front(chain3, rows, SearchConfig(budget=1))
        assert report.nondominated == ["p", "q"]
        assert report.undecided == []
        assert report.comparisons_run == 0

    def test_budget_leaves_pairs_undecided(self, indep3):
        rows = _rows(
            indep3,
            ("p", "A=a,B=b,C=c"),
            ("q", "A=a,B=bbar,C=cbar"),
        )
        report = pareto_front(indep3, rows, SearchConfig(budget=1))
        assert report.undecided == [("p", "q")]
        assert report.nondominated == []

    def test_undecided_pairs_name_every_duplicate(self, indep3):
        rows = _rows(
            indep3,
            ("p", "A=a,B=b,C=c"),
            ("q", "A=a,B=bbar,C=cbar"),
            ("p2", "A=a,B=b,C=c"),
        )
        report = pareto_front(indep3, rows, SearchConfig(budget=1))
        assert report.undecided == [("p", "q"), ("p2", "q")]
        assert report.nondominated == []
        assert report.dominated == []

    def test_a_pair_the_prune_refutes_is_decided_under_any_budget(self, indep3):
        rows = _rows(
            indep3,
            ("p", "A=a,B=b,C=cbar"),
            ("q", "A=abar,B=bbar,C=c"),
        )
        report = pareto_front(indep3, rows, SearchConfig(budget=1))
        assert report.nondominated == ["p", "q"]
        assert report.undecided == []
        assert report == pareto_front(indep3, rows)

    def test_settled_loser_leaves_no_open_pair(self, indep3):
        rows = _rows(
            indep3,
            ("q", "A=a,B=b,C=c"),
            ("p", "A=a,B=bbar,C=cbar"),
            ("r", "A=abar,B=bbar,C=cbar"),
        )
        report = pareto_front(indep3, rows, SearchConfig(budget=2))
        assert report.dominated == [("r", "p")]
        assert report.undecided == [("p", "q")]  # q vs r also ran out of budget
        assert report.nondominated == []

    def test_pass_matches_the_oracle(self):
        rng = random.Random(91)
        for _ in range(12):
            net = random_net(rng, rng.randint(3, 5), (2, 3))
            pool = rng.sample(all_outcomes(net), 6)  # 12 rows over 6 outcomes repeat some
            catalog = [CatalogRow(f"r{i:02d}", rng.choice(pool)) for i in range(12)]
            by_id = {row.identifier: row.outcome for row in catalog}
            closure = oracle_closure(net)
            beaten = {i for i, o in by_id.items() if any(a in closure[o] for a in by_id.values())}

            report = pareto_front(net, catalog)
            assert sorted(report.nondominated) == sorted(set(by_id) - beaten)
            assert {loser for loser, _ in report.dominated} == beaten
            for loser, winner in report.dominated:
                assert by_id[winner] in closure[by_id[loser]]
            assert report.undecided == []
            u = len(set(by_id.values()))
            f = len({by_id[i] for i in report.nondominated})
            # each search pits a front outcome against a lower-ranked one
            assert report.comparisons_run <= f * (u - 1) - f * (f - 1) // 2

            depth: dict = {}

            def chain_above(o):
                if o not in depth:
                    above = [a for a in set(by_id.values()) if a in closure[o]]
                    depth[o] = max((chain_above(a) + 1 for a in above), default=0)
                return depth[o]

            layers = sort_catalog(net, catalog)
            for k, layer in enumerate(layers):
                assert layer and all(chain_above(by_id[i]) == k for i in layer)
            assert sorted(i for layer in layers for i in layer) == sorted(by_id)


class TestPass:
    @pytest.mark.parametrize("entry", [pareto_front, sort_catalog])
    def test_a_repeated_id_is_refused(self, chain2, entry):
        # the pass would report the id on both sides of a pair, or twice
        rows = _rows(chain2, ("a", "A=a,B=b"), ("a", "A=abar,B=bbar"))
        with pytest.raises(CPNetError) as caught:
            entry(chain2, rows)
        assert str(caught.value) == "row 2: id 'a' repeats the id of row 1"

    def test_an_iterator_reads_as_its_list(self, chain3):
        rows = [CatalogRow(f"r{i}", o) for i, o in enumerate(all_outcomes(chain3))]
        assert pareto_front(chain3, iter(rows)) == pareto_front(chain3, rows)
        assert sort_catalog(chain3, iter(rows)) == sort_catalog(chain3, rows)
        assert len(sort_catalog(chain3, iter(rows))) > 1

    def test_no_walk_after_a_refutation(self, monkeypatch):
        counts = {"kept": 0, "refuted": 0, "walks": 0}
        prune, walk = _Core.prune, search._committed_walk

        def counted_prune(core, better, worse):
            masks = prune(core, better, worse)
            counts["kept" if masks[-1] else "refuted"] += 1
            return masks

        def counted_walk(*args):
            counts["walks"] += 1
            return walk(*args)

        monkeypatch.setattr(_Core, "prune", counted_prune)
        monkeypatch.setattr(search, "_committed_walk", counted_walk)
        rng = random.Random(93)
        for _ in range(20):
            net = random_tree(rng, rng.randint(4, 8))
            pool = rng.sample(all_outcomes(net), 6)
            catalog = [CatalogRow(f"r{i}", rng.choice(pool)) for i in range(10)]
            pareto_front(net, catalog)
            sort_catalog(net, catalog, SearchConfig(budget=2))
        assert counts["walks"] == counts["kept"] > 0
        assert counts["refuted"] > 0

    def test_outcomes_are_hashed_per_row_not_per_pair(self, monkeypatch):
        counts = {"hashes": 0, "pairs": 0}
        hash_, prune = Outcome.__hash__, _Core.prune

        def counted_hash(outcome):
            counts["hashes"] += 1
            return hash_(outcome)

        def counted_prune(core, better, worse):
            counts["pairs"] += 1
            return prune(core, better, worse)

        monkeypatch.setattr(Outcome, "__hash__", counted_hash)
        monkeypatch.setattr(_Core, "prune", counted_prune)
        rng = random.Random(20)
        most_pairs = 0
        for k in range(16):
            net = random_tree(rng, 8) if k % 2 else random_net(rng, 5, (2, 3))
            pool = rng.sample(all_outcomes(net), 10)  # 12 rows, two of them repeats
            catalog = [CatalogRow(f"r{i}", o) for i, o in enumerate(pool + pool[:2])]
            for run in (pareto_front, sort_catalog):
                counts.update(hashes=0, pairs=0)
                run(net, catalog)
                assert counts["hashes"] <= 2 * len(catalog), (run.__name__, counts)
                most_pairs = max(most_pairs, counts["pairs"])
        assert most_pairs > 2 * len(catalog)


class TestSortCatalog:
    def test_total_order_layers(self, chain2):
        rows = _rows(
            chain2,
            ("r4", "A=abar,B=b"),
            ("r1", "A=a,B=b"),
            ("r3", "A=abar,B=bbar"),
            ("r2", "A=a,B=bbar"),
        )
        assert sort_catalog(chain2, rows) == [["r1"], ["r2"], ["r3"], ["r4"]]

    def test_incomparable_pair_shares_a_layer(self, chain3):
        names = {
            "A=a,B=b,C=c": "t0",
            "A=a,B=b,C=cbar": "t1",
            "A=a,B=bbar,C=cbar": "t2",
            "A=a,B=bbar,C=c": "t3a",
            "A=abar,B=bbar,C=cbar": "t3b",
            "A=abar,B=bbar,C=c": "t4",
            "A=abar,B=b,C=c": "t5",
            "A=abar,B=b,C=cbar": "t6",
        }
        rows = _rows(chain3, *((identifier, text) for text, identifier in names.items()))
        layers = sort_catalog(chain3, rows)
        assert layers == [["t0"], ["t1"], ["t2"], ["t3a", "t3b"], ["t4"], ["t5"], ["t6"]]

    def test_empty_catalog(self, chain2):
        assert sort_catalog(chain2, []) == []

    def test_layers_respect_dominance(self):
        rng = random.Random(92)
        from cpnet import oracle_closure

        for _ in range(6):
            net = random_net(rng, 3)
            unique = list(dict.fromkeys(o for o, _ in all_pairs(net)))
            catalog = [CatalogRow(f"r{i}", o) for i, o in enumerate(unique)]
            layers = sort_catalog(net, catalog)
            layer_of = {
                identifier: depth for depth, layer in enumerate(layers) for identifier in layer
            }
            closure = oracle_closure(net)
            by_id = {row.identifier: row.outcome for row in catalog}
            for row in catalog:
                for other in catalog:
                    if by_id[row.identifier] in closure[by_id[other.identifier]]:
                        assert layer_of[row.identifier] < layer_of[other.identifier]

    def test_catalog_file_integration(self, chain2):
        text = "id,A,B\nm1,a,b\nm2,abar,b\nm3,a,bbar\n"
        rows, diagnostics = parse_catalog(chain2, text)
        assert not diagnostics
        assert sort_catalog(chain2, rows) == [["m1"], ["m3"], ["m2"]]
