"""Unit tests for the asyncio front end's ordering and lifecycle."""

from __future__ import annotations

import asyncio

import pytest

from repro import AsyncService
from repro.errors import ServiceError
from repro.service import ErrorResponse, StreamDecisions
from repro.stream import AddLeaf, RemoveSubtree
from repro.trees import branch, build


def ward():
    return build(branch("patient", branch("clinicalTrial", nid=21), nid=20))


POLICY = [("/patient[/clinicalTrial]", "up"), ("/patient", "down")]


def run(coro):
    return asyncio.run(coro)


class TestOrdering:
    def test_pipelined_ops_resolve_in_submission_order(self):
        async def main():
            async with AsyncService() as svc:
                await svc.register_constraints("policy", POLICY)
                await svc.register_document("ward", ward())
                # Removing #30 only works after the first batch added it:
                # pipelined submission must keep the log order.
                first = svc.enforce("ward", "policy",
                                    [AddLeaf(20, "visit", nid=30)])
                second = svc.enforce("ward", "policy",
                                     [RemoveSubtree(30)])
                r1, r2 = await asyncio.gather(first, second)
                return r1, r2

        r1, r2 = run(main())
        assert r1.decisions[0].accepted
        # removing the fresh leaf is fine (it was never in the baseline)
        assert r2.decisions[0].accepted

    def test_documents_interleave_but_each_is_serial(self):
        async def main():
            async with AsyncService() as svc:
                await svc.register_constraints("policy", POLICY)
                a, b = ward(), ward()
                await svc.register_document("a", a)
                await svc.register_document("b", b)
                futures = []
                for i in range(5):
                    futures.append(svc.enforce(
                        "a", "policy", [AddLeaf(20, "visit", nid=100 + i)]))
                    futures.append(svc.enforce(
                        "b", "policy", [AddLeaf(20, "visit", nid=200 + i)]))
                replies = await asyncio.gather(*futures)
                return replies, a.size, b.size

        replies, size_a, size_b = run(main())
        assert all(r.decisions[0].accepted for r in replies)
        assert size_a == size_b == 3 + 5  # root + patient + trial + 5 visits

    def test_late_registration_barrier_orders_across_queues(self):
        # A StreamSubmit depending on a constraint set registered many
        # control-queue requests earlier in the same pipelined burst must
        # wait for that registration — even past FAIRNESS_STRIDE, where
        # the control worker yields mid-drain and the document worker
        # could otherwise run ahead of it.
        from repro import constraint_set
        from repro.constraints import no_insert
        from repro.service import (ImplicationQuery, RegisterConstraints,
                                   StreamSubmit)

        async def main():
            async with AsyncService() as svc:
                await svc.register_constraints("warm", POLICY)
                await svc.register_document("ward", ward())
                stride = 16
                futures = [svc.submit(ImplicationQuery(
                    "warm", (no_insert("/patient"),)))
                    for _ in range(stride + 4)]
                futures.append(svc.submit(RegisterConstraints(
                    "late", tuple(constraint_set(*POLICY)))))
                futures.append(svc.submit(StreamSubmit(
                    "ward", "late", (AddLeaf(20, "visit", nid=77),))))
                return list(await asyncio.gather(*futures))

        replies = run(main())
        assert all(not isinstance(r, ErrorResponse) for r in replies), \
            [r.to_dict() for r in replies if isinstance(r, ErrorResponse)]
        assert replies[-1].decisions[0].accepted

    def test_sequence_numbers_are_monotone_per_document(self):
        async def main():
            async with AsyncService() as svc:
                await svc.register_constraints("policy", POLICY)
                await svc.register_document("ward", ward())
                futures = [svc.enforce("ward", "policy",
                                       [AddLeaf(20, "visit", nid=40 + i)])
                           for i in range(4)]
                replies = await asyncio.gather(*futures)
                return [r.decisions[0].seq for r in replies]

        assert run(main()) == [0, 1, 2, 3]


class TestLifecycleAndErrors:
    def test_error_responses_pass_through(self):
        async def main():
            async with AsyncService() as svc:
                return await svc.enforce("ghost", "nope", [AddLeaf(1, "x")])

        reply = run(main())
        assert isinstance(reply, ErrorResponse)
        assert reply.error == "ServiceError"

    def test_submit_after_close_raises(self):
        from repro.service import StreamSubmit

        async def main():
            svc = AsyncService()
            await svc.register_constraints("policy", POLICY)
            await svc.close()
            with pytest.raises(ServiceError):
                svc.submit(StreamSubmit("ward", "policy",
                                        (AddLeaf(20, "visit"),)))

        run(main())

    def test_a_handler_bug_is_set_on_the_future(self):
        from repro import ConstraintService
        from repro.service import StreamStatus

        class Buggy(ConstraintService):
            def handle(self, request):
                raise TypeError("simulated handler bug")

        async def main():
            async with AsyncService(Buggy()) as svc:
                future = svc.submit(StreamStatus("ward"))
                assert future.done()  # served at submission
                with pytest.raises(TypeError, match="simulated"):
                    await future

        run(main())

    def test_apply_returns_one_decision(self):
        async def main():
            async with AsyncService() as svc:
                await svc.register_constraints("policy", POLICY)
                await svc.register_document("ward", ward())
                return await svc.apply("ward", "policy", RemoveSubtree(21))

        decision = run(main())
        assert not decision.accepted and decision.violations

    def test_implies_convenience_returns_answers(self):
        from repro.constraints import no_insert

        async def main():
            async with AsyncService() as svc:
                await svc.register_constraints(
                    "policy", [("/patient[/visit]", "down"),
                               ("/patient[/clinicalTrial]", "up"),
                               ("/patient[/clinicalTrial]", "down")])
                return await svc.implies(
                    "policy",
                    [no_insert("/patient[/visit][/clinicalTrial]")])

        reply = run(main())
        assert reply.answers == ("implied",)

    def test_enforce_returns_stream_decisions(self):
        async def main():
            async with AsyncService() as svc:
                await svc.register_constraints("policy", POLICY)
                await svc.register_document("ward", ward())
                return await svc.enforce("ward", "policy",
                                         [AddLeaf(20, "visit")])

        assert isinstance(run(main()), StreamDecisions)
