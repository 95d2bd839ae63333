"""Pipelined requests are served in submission order, on every path.

The paper judges each update against the cumulative edit of one ordered
log (Definition 2.3), so a pipelined burst must get exactly the answers a
synchronous :meth:`ConstraintService.handle` replay of the same sequence
gets.  Each sequence here runs through :class:`AsyncService` (futures
gathered after the whole burst is submitted) and through one
:class:`ReproClient` connection (every frame written before any response
is awaited), and is compared with that replay by
:func:`response_checksum`.  The three named sequences are reorderings a
server with per-document queues produced behind a backlog of 40; the
property mixes every kind of request in bursts longer than 16.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import AsyncService, ConstraintService
from repro.server import ReproClient, ReproServer
from repro.service import (
    Ack,
    StreamDecisions,
    request_from_dict,
    response_checksum,
)
from repro.trees.node import GLOBAL_IDS

TREE = {"id": 1, "label": "root", "children": [
    {"id": 2, "label": "patient", "children": [
        {"id": 3, "label": "visit", "children": []},
        {"id": 4, "label": "clinicalTrial", "children": []}]}]}
TEMPLATE = {"name": "annotate", "ops": [{
    "op": "add-leaf",
    "label": {"hole": "label", "name": "l", "domain": ["note", "memo"]},
    "parent": {"hole": "node", "name": "p", "anchor": "/patient"}}]}
POLICY = [["/patient[/clinicalTrial]", "no-remove"],
          ["/patient[/visit]", "no-insert"]]
OTHER = [["/patient", "no-remove"]]
CONCLUSIONS = [["/patient[/clinicalTrial]", "no-remove"]]
BACKLOG = 40
#: Explicit node ids stay below this; allocated ids are pushed above it,
#: so the replay and the served run never collide differently.
NID_CEILING = 100_000


def constraints(name, policy=POLICY, replace=False):
    return {"request": "register-constraints", "name": name,
            "constraints": policy, "replace": replace}


def document(name, replace=False):
    return {"request": "register-document", "name": name, "tree": TREE,
            "replace": replace}


def template(name, on="p", replace=False):
    return {"request": "register-template", "name": name,
            "template": dict(TEMPLATE, name=name), "constraints": on,
            "replace": replace}


def implication(on="p"):
    return {"request": "implication", "constraints": on,
            "conclusions": CONCLUSIONS}


def add_leaf(parent, label, nid):
    return {"op": "add-leaf", "parent": parent, "label": label, "nid": nid}


def submit(doc, ops, on="p"):
    return {"request": "stream-submit", "document": doc, "constraints": on,
            "ops": ops}


def status(doc):
    return {"request": "stream-status", "document": doc}


def certified(doc, name="t", on="p"):
    return {"request": "certified-submit", "document": doc,
            "constraints": on, "template": name,
            "bindings": {"p": 2, "l": "note"}}


def fleet(members, epochs, on="p"):
    return {"request": "fleet-submit", "documents": members,
            "constraints": on, "epochs": epochs}


def replay(payloads):
    """The reference: one synchronous ``handle`` call per request."""
    svc = ConstraintService()
    return [svc.handle(request_from_dict(p)) for p in payloads]


async def through_async(setup, burst):
    async with AsyncService() as svc:
        replies = [await svc.submit(request_from_dict(p)) for p in setup]
        futures = [svc.submit(request_from_dict(p)) for p in burst]
        return replies + list(await asyncio.gather(*futures))


async def through_socket(setup, burst):
    async with ReproServer() as server:
        client = await ReproClient.connect(*server.address)
        try:
            replies = [await client.request(request_from_dict(p))
                       for p in setup]
            futures = [await client.submit(request_from_dict(p))
                       for p in burst]
            return replies + list(await asyncio.gather(*futures))
        finally:
            await client.close()


PATHS = pytest.mark.parametrize("path", [through_async, through_socket],
                                ids=["async", "socket"])


def served(path, setup, burst):
    """The path's replies, checked against the replay's."""
    GLOBAL_IDS.reserve_above(NID_CEILING)
    expected = [response_checksum(r) for r in replay(setup + burst)]
    replies = asyncio.run(path(setup, burst))
    assert [response_checksum(r) for r in replies] == expected, \
        [r.to_dict() for r in replies if not r.ok][:3]
    return replies


@PATHS
def test_template_registered_behind_a_backlog_serves_its_submit(path):
    setup = [constraints("p"), document("d")]
    burst = ([implication() for _ in range(BACKLOG)]
             + [template("t"), certified("d")])
    replies = served(path, setup, burst)
    assert isinstance(replies[-1], StreamDecisions), replies[-1].to_dict()
    assert all(d.accepted for d in replies[-1].decisions)


@PATHS
def test_status_after_a_fleet_behind_a_backlog_sees_the_fleet(path):
    setup = [constraints("p"), document("f1"), document("f2")]
    burst = ([implication() for _ in range(BACKLOG)]
             + [fleet(["f1", "f2"], [[["f1", [add_leaf(2, "note", 500)]]]]),
                status("f1")])
    after = served(path, setup, burst)[-1]
    # the member's bracket: begin, the add, commit
    assert isinstance(after, Ack) and after.size == 3, after.to_dict()


@PATHS
def test_set_replaced_after_submits_does_not_overtake_them(path):
    setup = [constraints("p"), document("d")]
    burst = ([submit("d", [add_leaf(2, "note", 500 + i)])
              for i in range(BACKLOG)]
             + [constraints("p", replace=True)])
    replies = served(path, setup, burst)
    seqs = [r.decisions[0].seq for r in replies[len(setup):-1]]
    assert seqs == list(range(BACKLOG))


# ----------------------------------------------------------------------
# Mixed bursts
# ----------------------------------------------------------------------
SETUP = [constraints("p"), constraints("q", OTHER), document("d1"),
         document("d2"), document("f1"), document("f2"), template("t")]


@st.composite
def steps(draw, nid):
    """One request of any kind, over a small fixed namespace."""
    kind = draw(st.sampled_from([
        "constraints", "document", "template", "implication", "instance",
        "submit", "submit", "submit", "status", "status", "certified",
        "fleet"]))
    doc = draw(st.sampled_from(["d1", "d2"]))
    on = draw(st.sampled_from(["p", "q"]))
    replace = draw(st.booleans())
    if kind == "constraints":
        return constraints(on, draw(st.sampled_from([POLICY, OTHER])),
                           replace=replace)
    if kind == "document":
        return document(draw(st.sampled_from(["d1", "d2", "f1"])),
                        replace=replace)
    if kind == "template":
        return template(draw(st.sampled_from(["t", "u"])), on,
                        replace=replace)
    if kind == "implication":
        return implication(on)
    if kind == "instance":
        return {"request": "instance-implication", "constraints": on,
                "document": doc, "conclusions": CONCLUSIONS,
                "max_moves": 0}
    if kind == "submit":
        ops = draw(st.sampled_from([
            [add_leaf(2, draw(st.sampled_from(["visit", "note"])), next(nid))],
            [{"op": "remove-subtree", "nid": 4}],
            [{"op": "move", "nid": 3, "new_parent": 1}]]))
        return submit(doc, ops, on)
    if kind == "status":
        return status(draw(st.sampled_from(["d1", "d2", "f1", "f2"])))
    if kind == "certified":
        return certified(doc, draw(st.sampled_from(["t", "u"])), on)
    member = draw(st.sampled_from(["f1", "f2"]))
    return fleet(["f1", "f2"], [[[member, [add_leaf(2, "note", next(nid))]]]])


@st.composite
def bursts(draw):
    nid = iter(range(1000, NID_CEILING))
    return [draw(steps(nid)) for _ in range(draw(st.integers(17, 40)))]


@PATHS
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(burst=bursts())
def test_mixed_bursts_fold_to_the_replays_checksums(path, burst):
    served(path, SETUP, burst)
