"""``fail_share`` accounting: every wrong, refused or lost answer is a
failure against the attempts.

Run with ``python3 -m pytest perfbench/tests`` from the repository
root.
"""

import json
import random

import pytest

from perfbench.lib_workloads import check_answers
from perfbench.loadgen import Exchange
from perfbench.serve_workloads import (
    Request,
    account,
    fill_expectations,
)
from perfbench.stats import Tally


def _pool():
    rng = random.Random(7)
    pool = []
    for _ in range(3):
        tags = list(range(32))
        rng.shuffle(tags)
        pool.append(Request("route", tags))
    setup = list(range(16))
    rng.shuffle(setup)
    pool.append(Request("setup", setup))
    fill_expectations(pool)
    return pool


def _reply(request_id, req, **override):
    from repro.accel import batch_setup_states, batch_self_route

    if req.op == "setup":
        states = batch_setup_states(4, [list(req.tags)])[0]
        reply = {"id": request_id, "op": "setup", "status": "ok",
                 "success": True, "states": states.tolist(), "v": 1}
    else:
        result = batch_self_route([list(req.tags)])
        reply = {"id": request_id, "op": "route", "status": "ok",
                 "success": bool(result.success_mask[0]),
                 "mapping": result.mappings[0].tolist(), "v": 1}
    reply.update(override)
    return json.dumps(reply).encode()


def test_correct_replies_count_no_failure():
    pool = _pool()
    exchange = Exchange(len(pool))
    exchange.sent = [0.0] * len(pool)
    exchange.replies = [(1.0, _reply(i, req)) for i, req in
                        enumerate(pool)]
    tally = Tally()
    good = account(exchange, pool, tally)
    assert tally.attempted == len(pool)
    assert tally.failed == 0
    assert sorted(good) == list(range(len(pool)))


def test_planted_wrong_rejected_and_lost_answers_all_fail():
    pool = _pool()
    sent = 8
    exchange = Exchange(sent)
    exchange.sent = [0.0] * sent
    wrong_mapping = list(pool[0].expect["mapping"])
    wrong_mapping[0], wrong_mapping[1] = wrong_mapping[1], wrong_mapping[0]
    bad_states = json.loads(_reply(3, pool[3]))["states"]
    bad_states[0][0] ^= 1
    exchange.replies = [
        (1.0, _reply(0, pool[0], mapping=wrong_mapping)),   # wrong
        (1.0, _reply(1, pool[1])),                          # right
        (1.0, _reply(2, pool[2], status="rejected")),       # refused
        (1.0, _reply(3, pool[3], states=bad_states)),       # wrong
        (1.0, _reply(4, pool[0])),                          # right
        (1.0, _reply(5, pool[1], status="error")),          # error
        (1.0, b"not json"),                                 # garbage
        # requests 6 and 7 never answered; one garbage line arrived
    ]
    tally = Tally()
    good = account(exchange, pool, tally)
    assert sorted(good) == [1, 4]
    assert tally.failures == {"wrong": 2, "error": 2, "rejected": 1,
                              "missing": 1}
    assert tally.attempted == sent
    assert tally.fail_share == pytest.approx(6 / 8)


def test_one_tally_over_several_load_runs_counts_each_run_once():
    pool = _pool()
    tally = Tally()
    for _ in range(2):
        exchange = Exchange(len(pool))
        exchange.sent = [0.0] * len(pool)
        exchange.replies = [(1.0, _reply(i, req)) for i, req in
                            enumerate(pool)][:-1]
        account(exchange, pool, tally)
    assert tally.attempted == 2 * len(pool)
    assert tally.failures["missing"] == 2


def test_a_reply_equal_to_a_verified_one_is_not_trusted_blindly():
    # The second reply for pool[0] differs from the verified first one,
    # so it is checked again and caught.
    pool = _pool()
    exchange = Exchange(2)
    exchange.sent = [0.0, 0.0]
    wrong = list(pool[0].expect["mapping"])[::-1]
    exchange.replies = [(1.0, _reply(0, pool[0])),
                        (1.0, _reply(len(pool), pool[0], mapping=wrong))]
    exchange.sent = [0.0] * (len(pool) + 1)
    tally = Tally()
    account(exchange, pool, tally)
    assert tally.failures["wrong"] == 1


def test_lib_answers_count_each_wrong_item_once_per_unit():
    import numpy as np
    from repro.accel import batch_self_route

    rng = random.Random(3)
    perms = []
    for _ in range(4):
        perm = list(range(256))
        rng.shuffle(perm)
        perms.append(perm)
    perms = np.array(perms)
    routed = batch_self_route(perms)
    planted = routed.mappings.copy()
    planted[2] = planted[2][::-1]
    answers = [
        {"call": "batch.self_route", "input": 0, "rounds": 5,
         "success": routed.success_mask, "mappings": routed.mappings},
        {"call": "batch.self_route", "input": 0, "rounds": 2,
         "success": routed.success_mask, "mappings": planted},
    ]
    tally = Tally()
    check_answers("lib-wide", {"perms": perms}, answers, tally)
    assert tally.attempted == 7 * 4
    assert tally.failures["wrong"] == 2
