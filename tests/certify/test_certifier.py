"""Certifier tests: verdicts, discharge accounting, and the witness duty.

The contract under test is asymmetric by design.  ``CERTIFIED`` is a
*static* promise (no search runs, ``attempts`` stays 0) built from kind
monotonicity and label disjointness over the PR 6 impact signatures.
``REJECTED`` must put its money down: every rejection ships a
:class:`~repro.certify.TemplateCounterexample` whose instantiation
**replays** to a real commit rejection through an uncertified
:class:`~repro.stream.engine.StreamEnforcer` — the search never lies.
``UNKNOWN`` is the honest residue of a bounded search and is treated as
not-certifiable everywhere downstream.
"""

from __future__ import annotations

import pytest

from repro.certify import (
    CertifyVerdict,
    LabelHole,
    NodeHole,
    SubtreeHole,
    TemplateAdd,
    TemplateMove,
    TemplateRemove,
    UpdateTemplate,
    certify,
    discharge_pairs,
)
from repro.constraints import constraint_set
from repro.constraints.validity import Violation
from repro.obs import MetricsRegistry
from repro.stream.engine import StreamEnforcer
from repro.stream.ops import Begin, Commit
from repro.xpath.parser import parse

#: No insertion may create a /patient/visit match; no removal may
#: destroy a /patient[/clinicalTrial] match.
POLICY = constraint_set(
    ("/patient/visit", "down"),
    ("/patient[/clinicalTrial]", "up"),
)

ANNOTATE = UpdateTemplate("annotate", (
    TemplateAdd(NodeHole("p", parse("//patient")),
                LabelHole("l", frozenset({"note", "memo"}))),
))


class TestCertified:
    def test_disjoint_labels_certify_without_search(self):
        outcome = certify(ANNOTATE, POLICY)
        assert outcome.verdict is CertifyVerdict.CERTIFIED
        assert outcome.certified
        assert outcome.attempts == 0, "the static phase must not search"
        assert outcome.pairs == 2 and outcome.discharged == 2
        assert outcome.counterexample is None

    def test_certificate_carries_per_pair_reasons(self):
        cert = certify(ANNOTATE, POLICY).certificate
        assert cert is not None
        assert cert.template_key == ANNOTATE.canonical_key()
        # The add is kind-insensitive to the NO_REMOVE constraint and
        # label-disjoint from the NO_INSERT one.
        assert cert.reasons() == {"kind": 1, "labels": 1}

    def test_kind_monotonicity_alone_suffices(self):
        """An add can never violate a NO_REMOVE-only policy — even when
        the inserted label sits squarely in the constraint's alphabet."""
        up_only = constraint_set(("/patient[/visit]", "up"))
        tpl = UpdateTemplate("spam", (
            TemplateAdd(NodeHole("p"), "visit"),))
        outcome = certify(tpl, up_only)
        assert outcome.certified
        assert outcome.certificate.reasons() == {"kind": 1}

    def test_bounded_subtree_move_certifies_by_disjointness(self):
        tpl = UpdateTemplate("shuffle", (
            TemplateMove(SubtreeHole("s", frozenset({"note", "memo"})),
                         NodeHole("d")),))
        outcome = certify(tpl, POLICY)
        assert outcome.certified
        assert outcome.certificate.reasons() == {"labels": 2}

    def test_discharge_pairs_split_is_exhaustive(self):
        tpl = UpdateTemplate("mix", (
            TemplateAdd(NodeHole("p"), "visit"),        # hits the down
            TemplateRemove(SubtreeHole("s", frozenset({"note"}))),
        ))
        discharged, open_pairs = discharge_pairs(tpl, POLICY)
        assert len(discharged) + len(open_pairs) == len(tpl.ops) * 2
        assert [(at, str(c.range)) for at, c in open_pairs] == \
            [(0, "/patient/visit")]


class TestRejected:
    def test_violating_add_is_rejected_with_a_witness(self):
        tpl = UpdateTemplate("intrude", (
            TemplateAdd(NodeHole("p", parse("/patient")), "visit"),))
        outcome = certify(tpl, POLICY)
        assert outcome.verdict is CertifyVerdict.REJECTED
        assert not outcome.certified
        assert outcome.attempts >= 1
        assert outcome.counterexample is not None
        assert outcome.counterexample.violations

    def test_counterexample_replays_to_a_real_violation(self):
        """The witness duty: instantiate the rejected template on the
        shipped document and the commit *actually* fails, with
        first-class :class:`Violation` witnesses — not a static guess."""
        tpl = UpdateTemplate("purge", (
            TemplateRemove(NodeHole("s")),))
        outcome = certify(tpl, POLICY)
        assert outcome.verdict is CertifyVerdict.REJECTED
        ce = outcome.counterexample
        enforcer = StreamEnforcer(POLICY, ce.document.copy(),
                                  analysis=False)
        enforcer.apply(Begin(tpl.name))
        for op in tpl.instantiate(ce.bindings):
            enforcer.apply(op)
        decision = enforcer.apply(Commit())
        assert decision.rejected
        assert decision.violations
        assert all(isinstance(v, Violation) for v in decision.violations)
        assert decision.violations == ce.violations

    def test_rejection_is_deterministic(self):
        """Same seed, same budget → bit-identical witness and bindings
        (journal recovery re-certifies and must reproduce the verdict)."""
        tpl = UpdateTemplate("intrude", (
            TemplateAdd(NodeHole("p"), "visit"),))
        a = certify(tpl, POLICY)
        b = certify(tpl, POLICY)
        assert a.verdict is b.verdict is CertifyVerdict.REJECTED
        assert a.attempts == b.attempts
        # Witness node ids are freshly allocated per call; the *shape*
        # and the violation story must reproduce exactly.
        assert (a.counterexample.document.canonical_shape()
                == b.counterexample.document.canonical_shape())
        assert (sorted(a.counterexample.bindings)
                == sorted(b.counterexample.bindings))
        assert (len(a.counterexample.violations)
                == len(b.counterexample.violations))

    def test_multi_op_interaction_is_caught(self):
        """Each op alone is harmless; the *sequence* removes a trial and
        re-adds a visit — both constraints only trip in combination with
        the right witness, which the search must find."""
        tpl = UpdateTemplate("churn", (
            TemplateRemove(SubtreeHole("s",
                                       frozenset({"clinicalTrial"}))),
            TemplateAdd(NodeHole("p", parse("/patient")), "visit"),
        ))
        outcome = certify(tpl, POLICY)
        assert outcome.verdict is CertifyVerdict.REJECTED
        assert outcome.counterexample.violations


class TestUnknown:
    def test_exhausted_budget_is_unknown_not_certified(self):
        tpl = UpdateTemplate("intrude", (
            TemplateAdd(NodeHole("p"), "visit"),))
        outcome = certify(tpl, POLICY, max_bindings=0)
        assert outcome.verdict is CertifyVerdict.UNKNOWN
        assert not outcome.certified
        assert outcome.attempts == 0
        assert outcome.certificate is None
        assert outcome.counterexample is None
        assert outcome.undischarged

    def test_tight_budget_degrades_to_unknown_never_certified(self):
        """Shrinking ``max_bindings`` below what the witness needs loses
        the rejection — to UNKNOWN, the safe side — and the per-document
        cap keeps the total attempts bounded."""
        tpl = UpdateTemplate("intrude", (
            TemplateAdd(NodeHole("p"), "visit"),))
        loose = certify(tpl, POLICY, max_bindings=256)
        assert loose.verdict is CertifyVerdict.REJECTED
        tight = certify(tpl, POLICY, max_bindings=1, random_documents=2)
        assert tight.verdict in (CertifyVerdict.REJECTED,
                                 CertifyVerdict.UNKNOWN)
        assert tight.attempts <= 1 * 20  # ≤ one binding per witness doc


class TestAccounting:
    def test_metrics_counters_track_verdicts(self):
        m = MetricsRegistry()
        certify(ANNOTATE, POLICY, metrics=m)
        bad = UpdateTemplate("intrude", (
            TemplateAdd(NodeHole("p"), "visit"),))
        certify(bad, POLICY, metrics=m)
        certify(bad, POLICY, max_bindings=0, metrics=m)
        assert m.counter("certify.certified_total").value == 1
        assert m.counter("certify.rejected_total").value == 1
        assert m.counter("certify.unknown_total").value == 1

    def test_wire_stats_are_int_pairs(self):
        outcome = certify(UpdateTemplate("intrude", (
            TemplateAdd(NodeHole("p"), "visit"),)), POLICY)
        stats = dict(outcome.wire_stats())
        assert stats["certify.certified"] == 0
        assert stats["certify.rejected"] == 1
        assert stats["certify.attempts"] == outcome.attempts
        assert stats["certify.witness_violations"] >= 1
        assert all(isinstance(v, int) and not isinstance(v, bool)
                   for v in stats.values())

    def test_wildcard_outputs_are_refused(self):
        from repro.errors import NotConcreteError
        with pytest.raises(NotConcreteError):
            certify(ANNOTATE, constraint_set(("/patient/*", "down")))
