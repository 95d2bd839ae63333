"""The compiled session API: agreement with the legacy path, caching, batches."""

import pytest

from repro import Reasoner, constraint_set, implies, implies_on, no_insert, no_remove
from repro.api import BoundReasoner
from repro.constraints import ConstraintType, UpdateConstraint
from repro.errors import NotConcreteError, UnsupportedProblemError
from repro.implication import Answer
from repro.trees import branch, build
from repro.xpath import parse


def assert_same_verdict(result_a, result_b):
    assert result_a.answer is result_b.answer, (result_a, result_b)
    assert result_a.engine == result_b.engine
    assert result_a.reason == result_b.reason


class TestDispatchAgreement:
    """One handcrafted problem per Table 1 dispatch branch."""

    CASES = [
        # cross-type: no premise of the conclusion's type
        ([("/a", "up")], no_insert("/a")),
        # single-type, full fragment
        ([("/patient[/visit]", "down")], no_insert("/patient[/visit][/x]")),
        # mixed types, child-only (Theorem 4.1)
        ([("/a[/b]", "up"), ("/a", "down")], no_remove("/a[/b]")),
        # mixed types, linear (record fixpoint, Example 4.1 family)
        ([("//a//c", "up"), ("//c", "down")], no_remove("//a//c")),
        # mixed types, predicates + descendant (hybrid NEXPTIME cell)
        ([("//a[/b]", "up"), ("/a", "down")], no_remove("//a[/b]")),
    ]

    @pytest.mark.parametrize("specs,conclusion", CASES)
    def test_reasoner_matches_legacy(self, specs, conclusion):
        premises = constraint_set(*specs)
        legacy = implies(premises, conclusion)
        session = Reasoner(premises).implies(conclusion)
        assert_same_verdict(legacy, session)

    @pytest.mark.parametrize("specs,conclusion", CASES)
    def test_memoised_answer_is_stable(self, specs, conclusion):
        reasoner = Reasoner(constraint_set(*specs))
        first = reasoner.implies(conclusion)
        again = reasoner.implies(conclusion)
        assert again is first  # served from the memo
        assert reasoner.stats.hits == 1

    def test_canonical_variants_share_a_cache_line(self):
        reasoner = Reasoner(constraint_set(("/a[/b][/c]", "down")))
        first = reasoner.implies(no_insert("/a[/b][/c]"))
        variant_conclusion = no_insert("/a[/c][/b]")
        variant = reasoner.implies(variant_conclusion)
        assert reasoner.stats.hits == 1
        assert variant.answer is first.answer
        # ... but the result is re-anchored on the conclusion actually asked:
        assert variant.conclusion is variant_conclusion

    def test_example21_verdicts(self, example21_constraints):
        reasoner = Reasoner(example21_constraints)
        assert reasoner.implies(
            no_insert("/patient[/visit][/clinicalTrial]")).is_implied
        assert not reasoner.implies(no_insert("/patient")).is_implied


class TestRequireDecision:
    def test_unknown_raises_even_on_memo_hit(self):
        premises = constraint_set(("//a[/b]", "up"), ("//a[/c]", "down"),
                                  ("//b[/a]", "up"))
        conclusion = no_remove("//a[/b][/c]")
        reasoner = Reasoner(premises)
        result = reasoner.implies(conclusion)
        if result.is_unknown:  # the hybrid cell stayed inconclusive
            with pytest.raises(UnsupportedProblemError):
                reasoner.implies(conclusion, require_decision=True)

    def test_non_concrete_conclusion_rejected(self):
        reasoner = Reasoner(constraint_set(("/a", "up")))
        with pytest.raises(NotConcreteError):
            reasoner.implies(UpdateConstraint(parse("/a/*"),
                                              ConstraintType.NO_REMOVE))

    def test_non_concrete_premises_rejected_at_compile_time(self):
        wild = UpdateConstraint(parse("/a/*"), ConstraintType.NO_REMOVE)
        with pytest.raises(NotConcreteError):
            Reasoner([wild])


class TestCompilation:
    def test_compiled_views(self):
        premises = constraint_set(("/a[/b]", "up"), ("//c", "down"))
        reasoner = Reasoner(premises)
        assert reasoner.fragment.name == "XP{/,[],//}"
        assert reasoner.labels == {"a", "b", "c"}
        assert len(reasoner.of_type(ConstraintType.NO_REMOVE)) == 1
        assert "Reasoner(2 constraints" in repr(reasoner)


class TestBatch:
    def test_results_align_with_inputs(self):
        reasoner = Reasoner(constraint_set(("/a[/b]", "down"), ("/a", "down")))
        conclusions = [no_insert("/a[/b]"), no_insert("/x"), no_insert("/a")]
        report = reasoner.implies_all(conclusions)
        assert len(report) == 3
        assert report[0].is_implied
        assert report[2].is_implied
        assert report.implied_count == 2
        assert not report.all_implied
        first = report.first_refuted
        assert first is not None and first[0] is conclusions[1]

    def test_fail_fast_skips_the_tail(self):
        reasoner = Reasoner(constraint_set(("/a", "down")))
        report = reasoner.implies_all(
            [no_insert("/a"), no_insert("/x"), no_insert("/a")],
            fail_fast=True)
        assert report[0].is_implied
        assert report[1].is_refuted
        assert report[2] is None
        assert report.skipped_count == 1
        assert "skipped" in report.summary()

    def test_duplicates_inside_a_batch_hit_the_memo(self):
        reasoner = Reasoner(constraint_set(("/a", "down")))
        report = reasoner.implies_all([no_insert("/a")] * 5)
        assert report.all_implied
        assert reasoner.stats.hits == 4


class TestBoundReasoner:
    @pytest.fixture
    def current(self):
        return build(
            branch("patient", branch("visit"), branch("clinicalTrial")),
            branch("patient", branch("visit")),
        )

    def test_matches_legacy_on_figure2(self, example21_constraints,
                                       figure2_instances):
        _, after = figure2_instances
        bound = Reasoner(example21_constraints).bind(after)
        for conclusion in (no_insert("/patient[/visit]"),
                           no_remove("/patient/visit"),
                           no_insert("/patient")):
            assert_same_verdict(
                implies_on(example21_constraints, after, conclusion),
                bound.implies_on(conclusion))

    def test_premise_answers_computed_once(self, current):
        premises = constraint_set(("/patient[/visit]", "down"),
                                  ("/patient", "down"))
        bound = Reasoner(premises).bind(current)
        hits = bound.premise_answers()
        assert bound.premise_answers() == hits
        assert all(len(ids) == 2 for ids in hits.values())
        # The returned mapping is a defensive copy: mutating it must not
        # poison the cache backing later queries.
        for ids in hits.values():
            ids.add(999_999)
        verdict = bound.implies_on(no_insert("/patient"))
        assert verdict.answer is not None  # decided from unpolluted cache
        assert all(999_999 not in ids
                   for ids in bound._range_hits.values())

    def test_memoises_per_conclusion(self, current):
        bound = Reasoner(constraint_set(("/patient", "down"))).bind(current)
        conclusion = no_insert("/patient")
        first = bound.implies_on(conclusion)
        assert bound.implies_on(conclusion) is first
        assert bound.stats.hits == 1

    def test_search_knobs_key_the_memo(self, current):
        premises = constraint_set(("/patient[/visit]", "down"),
                                  ("/patient[/clinicalTrial]", "up"))
        bound = Reasoner(premises).bind(current)
        loose = bound.implies_on(no_insert("/patient"), max_moves=1)
        tight = bound.implies_on(no_insert("/patient"), max_moves=2)
        assert loose.answer is tight.answer  # knobs only widen the search
        assert bound.stats.misses == 2

    def test_staleness_guard(self, current):
        bound = Reasoner(constraint_set(("/patient", "down"))).bind(current)
        bound.implies_on(no_insert("/patient"))
        current.add_child(current.root, "patient")
        with pytest.raises(ValueError, match="rebind"):
            bound.implies_on(no_insert("/patient"))

    @pytest.mark.parametrize("engine", ["naive", "bitset"])
    def test_size_preserving_move_stales_the_binding(self, current, engine):
        bound = Reasoner(constraint_set(("/patient[/visit]", "down"))).bind(
            current, engine=engine)
        (answers,) = bound.premise_answers().values()
        assert len(answers) == 2
        left, other = current.children(current.root)
        visit = current.children(left)[0]
        current.move(visit, other)  # the size stays the same
        with pytest.raises(ValueError, match="rebind"):
            bound.premise_answers()
        with pytest.raises(ValueError, match="rebind"):
            bound.implies_on(no_insert("/patient"))

    def test_one_shot_implies_on(self, current):
        premises = constraint_set(("/patient", "down"))
        result = Reasoner(premises).implies_on(current, no_insert("/patient"))
        assert_same_verdict(result, implies_on(premises, current,
                                               no_insert("/patient")))
        assert isinstance(Reasoner(premises).bind(current), BoundReasoner)


class TestLegacyWrappers:
    """The free functions stay exact re-exports of the session behaviour."""

    def test_implies_accepts_bare_iterables(self):
        result = implies([no_insert("/a[/b]")], no_insert("/a[/b]"))
        assert result.answer is Answer.IMPLIED

    def test_unknown_verdict_unchanged(self):
        premises = constraint_set(("//a[/b]", "up"), ("//a[/c]", "down"),
                                  ("//b[/a]", "up"))
        conclusion = no_remove("//a[/b][/c]")
        legacy = implies(premises, conclusion)
        session = Reasoner(premises).implies(conclusion)
        assert_same_verdict(legacy, session)
