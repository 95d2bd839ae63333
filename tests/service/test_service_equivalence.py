"""Hypothesis equivalence: every serving path answers like direct calls.

The acceptance contract of :mod:`repro.service`: for any request
sequence, the response streams of :class:`ConstraintService` and
:class:`AsyncService` are identical —
checksum-compared via :func:`response_checksum` — to a *direct* reference
replay that drives raw :class:`~repro.api.session.Reasoner` /
:class:`~repro.api.session.BoundReasoner` /
:class:`~repro.stream.engine.StreamEnforcer` objects with no service
layer at all.  Every request and response in the stream must additionally
round-trip through ``to_dict``/``from_dict``.
"""

from __future__ import annotations

import asyncio
import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AsyncService, ConstraintService, Reasoner
from repro.analysis import IndependenceIndex
from repro.constraints import ConstraintSet
from repro.service import (
    Ack,
    ImplicationQuery,
    InstanceQuery,
    QueryAnswers,
    RegisterConstraints,
    RegisterDocument,
    StreamDecisions,
    StreamSubmit,
    Verdict,
    WireDecision,
    request_from_dict,
    response_checksum,
    response_from_dict,
)
from repro.workloads import random_requests

LABELS = ["a", "b", "c"]

RELAXED = settings(max_examples=8, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def reload(requests):
    """A private copy of the sequence via the wire (fresh trees: services
    *adopt* registered documents, so replays must not share them)."""
    return [request_from_dict(json.loads(json.dumps(r.to_dict())))
            for r in requests]


def checksums(responses):
    return [response_checksum(r) for r in responses]


def direct_replay(requests):
    """Reference semantics: raw sessions and streams, no service layer."""
    sets = {}
    sessions = {}
    docs = {}
    enforcers = {}
    out = []
    for request in requests:
        if isinstance(request, RegisterConstraints):
            sets[request.name] = ConstraintSet(request.constraints)
            sessions[request.name] = Reasoner(sets[request.name])
            stats = tuple(sorted(
                IndependenceIndex(sets[request.name]).stats().items()))
            out.append(Ack("constraints", request.name,
                           len(sets[request.name]), stats=stats))
        elif isinstance(request, RegisterDocument):
            docs[request.name] = request.tree
            out.append(Ack("document", request.name, request.tree.size))
        elif isinstance(request, ImplicationQuery):
            report = sessions[request.constraints].implies_all(
                request.conclusions, fail_fast=request.fail_fast,
                require_decision=request.require_decision)
            out.append(QueryAnswers(tuple(
                Verdict.of(r) if r is not None else None
                for r in report.results)))
        elif isinstance(request, InstanceQuery):
            bound = sessions[request.constraints].bind(docs[request.document])
            report = bound.implies_all(
                request.conclusions, fail_fast=request.fail_fast,
                require_decision=request.require_decision,
                max_moves=request.max_moves,
                search_budget=request.search_budget)
            out.append(QueryAnswers(tuple(
                Verdict.of(r) if r is not None else None
                for r in report.results)))
        elif isinstance(request, StreamSubmit):
            enforcer = enforcers.get(request.document)
            if enforcer is None:
                enforcer = sessions[request.constraints].open_stream(
                    docs[request.document])
                enforcers[request.document] = enforcer
            decisions = enforcer.submit(request.ops)
            out.append(StreamDecisions(tuple(
                WireDecision.of(d) for d in decisions)))
        else:  # pragma: no cover - the generator emits no other kinds
            raise AssertionError(request)
    return out


def service_replay(requests):
    svc = ConstraintService()
    return [svc.handle(r) for r in requests]


async def async_replay(requests):
    async with AsyncService() as svc:
        # Pipelined submission: futures resolve in per-document order.
        futures = [svc.submit(r) for r in requests]
        return list(await asyncio.gather(*futures))


def draw_requests(seed):
    rng = random.Random(seed)
    return random_requests(rng, LABELS, constraint_sets=2, documents=2,
                           queries=rng.randint(4, 9),
                           tree_size=rng.randint(6, 18),
                           stream_ops=rng.randint(4, 10))


@given(seed=st.integers(min_value=0, max_value=10**9))
@RELAXED
def test_all_executors_match_direct_calls(seed):
    requests = draw_requests(seed)
    reference = checksums(direct_replay(reload(requests)))
    inline = checksums(service_replay(reload(requests)))
    assert inline == reference
    asynchronous = checksums(asyncio.run(async_replay(reload(requests))))
    assert asynchronous == reference


@given(seed=st.integers(min_value=0, max_value=10**9))
@RELAXED
def test_every_request_and_response_round_trips(seed):
    requests = draw_requests(seed)
    svc = ConstraintService()
    for request in reload(requests):
        assert request_from_dict(
            json.loads(json.dumps(request.to_dict()))).to_dict() == \
            request.to_dict()
        response = svc.handle(request)
        assert response.ok, response.to_dict()
        assert response_from_dict(
            json.loads(json.dumps(response.to_dict()))).to_dict() == \
            response.to_dict()


def test_fail_fast_masks_identically_across_executors():
    rng = random.Random(20070611)
    requests = [r for r in random_requests(rng, LABELS, queries=12)
                ]
    # Force fail-fast on every query request so the masking path is hit.
    forced = []
    for r in requests:
        if isinstance(r, ImplicationQuery):
            forced.append(ImplicationQuery(r.constraints, r.conclusions,
                                           fail_fast=True))
        elif isinstance(r, InstanceQuery):
            forced.append(InstanceQuery(r.constraints, r.document,
                                        r.conclusions, fail_fast=True,
                                        max_moves=r.max_moves,
                                        search_budget=r.search_budget))
        else:
            forced.append(r)
    reference = checksums(direct_replay(reload(forced)))
    assert checksums(service_replay(reload(forced))) == reference
    assert checksums(asyncio.run(async_replay(reload(forced)))) == reference


def test_fail_fast_hides_errors_past_the_cutoff_on_every_executor():
    # A wildcard-output conclusion raises NotConcreteError when decided;
    # behind a fail_fast cutoff it must never be decided at all — and
    # when it IS reached, sync and async serving return the same error.
    from repro.constraints import no_insert

    register = RegisterConstraints("policy", (no_insert("/a"),))
    masked = ImplicationQuery("policy",
                              (no_insert("/b"), no_insert("/a/*")),
                              fail_fast=True)
    reached = ImplicationQuery("policy",
                               (no_insert("/b"), no_insert("/a/*")))
    inline = service_replay(reload([register, masked, reached]))
    asynchronous = asyncio.run(async_replay(reload([register, masked,
                                                    reached])))
    assert ([r.to_dict() for r in inline]
            == [r.to_dict() for r in asynchronous])
    assert isinstance(inline[1], QueryAnswers)       # error stayed masked
    assert inline[1].answers == ("not-implied", None)
    assert not inline[2].ok                          # error surfaced

