"""One service session: register documents, enforce async, batch queries.

A hospital fleet behind one :class:`~repro.service.service.
ConstraintService`: two ward documents and one policy are registered
once, an update log is enforced through the ``asyncio`` front end with
awaitable per-op decisions (served in submission order, across both
wards), and a batched implication query answers schema-evolution
questions against the same compiled constraint set — all through the
JSON-serialisable request protocol a network front end would speak.

Run:  PYTHONPATH=src python examples/service_demo.py
"""

from __future__ import annotations

import asyncio
import json

from repro import AsyncService
from repro.constraints import no_insert
from repro.service import ImplicationQuery, StreamSubmit
from repro.stream import AddLeaf, Begin, Commit, RemoveSubtree
from repro.trees import branch, build

POLICY = [
    ("/patient[/visit]", "down"),           # visits cannot be back-dated
    ("/patient[/clinicalTrial]", "up"),     # trial enrolment is permanent
    ("/patient[/clinicalTrial]", "down"),
    ("//prescription", "up"),               # prescriptions are append-only
]


def ward_a():
    return build(
        branch("patient",
               branch("clinicalTrial", nid=101),
               branch("visit", branch("prescription", nid=103), nid=102),
               nid=100))


def ward_b():
    return build(branch("patient", branch("visit", nid=202), nid=200))


async def main() -> None:
    async with AsyncService() as svc:
        # -- register once: names, not objects, cross the wire ----------
        await svc.register_constraints("hospital-policy", POLICY)
        await svc.register_document("ward-a", ward_a())
        await svc.register_document("ward-b", ward_b())

        # -- async enforcement: pipelined, served in submission order ---
        log_a = [
            AddLeaf(102, "prescription", nid=110),   # fine: append-only grows
            RemoveSubtree(103),                      # rejected: prescription
            Begin(),                                 # an all-or-nothing bracket
            AddLeaf(100, "visit", nid=111),
            RemoveSubtree(101),                      # breaks trial permanence
            Commit(),                                # -> whole bracket undone
        ]
        log_b = [AddLeaf(200, "visit", nid=210)]
        futures = [svc.submit(StreamSubmit("ward-a", "hospital-policy",
                                           (op,))) for op in log_a]
        futures += [svc.submit(StreamSubmit("ward-b", "hospital-policy",
                                            (op,))) for op in log_b]
        replies = await asyncio.gather(*futures)

        print("== async enforcement (ward-a then ward-b) ==")
        for reply in replies:
            for decision in reply.decisions:
                verdict = "ok " if decision.accepted else "REJ"
                note = decision.note or "; ".join(
                    str(v.constraint) for v in decision.violations)
                print(f"  [{verdict}] {decision.op}  {note}")

        # -- batched implication against the same compiled set ----------
        query = ImplicationQuery("hospital-policy", (
            no_insert("/patient[/visit][/clinicalTrial]"),
            no_insert("/patient"),
        ))
        answers = await svc.submit(query)
        print("\n== batched implication ==")
        for conclusion, verdict in zip(query.conclusions, answers.verdicts, strict=True):
            print(f"  {conclusion}: {verdict.answer} [{verdict.engine}]")

        # -- the whole exchange is JSON on the wire ---------------------
        print("\n== the same query as its wire form ==")
        print(json.dumps(query.to_dict(), indent=2)[:250], "...")


if __name__ == "__main__":
    asyncio.run(main())
