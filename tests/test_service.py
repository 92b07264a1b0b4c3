import gc
import json
import math
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from helpers import AesBlockCounter
from hypothesis import given, settings
from hypothesis import strategies as st

import hmqm.service
from hmqm.protocol import (
    MAX_N,
    Coin,
    HonestChannel,
    PositionKind,
    Verdict,
    VerdictParameters,
    bank_mint,
    holder_verify,
    matching_set,
    secret_bits,
)
from hmqm.service import (
    DEFAULT_JOURNAL,
    JOURNAL_FORMAT,
    MAX_MESSAGE_BYTES,
    BankClient,
    BankService,
    Journal,
    JournalCorruptError,
    ServiceError,
    client_verify,
    recv_message,
    send_message,
)


@pytest.fixture
def service(tmp_path):
    svc = BankService(journal_path=str(tmp_path / "journal.ndjson"))
    svc.start()
    yield svc
    svc.stop()


def raw_call(address, obj):
    with socket.create_connection(address) as sock:
        send_message(sock, obj)
        return recv_message(sock)


def test_mint_and_verify_over_the_wire(service):
    with BankClient(*service.address) as client:
        coin = client.mint(8, 20_000, 20, seed=99)
    params = VerdictParameters.from_noise(8, 0.0)
    outcome = client_verify(service.address, coin, params, HonestChannel(0.0), np.random.default_rng(1))
    assert outcome.verdict is Verdict.VALID
    assert outcome.check.s == 1
    assert outcome.check.correct_count == 20


def test_wire_run_matches_in_process_run_bit_for_bit(service):
    params = VerdictParameters.from_noise(8, 0.0)
    local_coin, local_db = bank_mint(8, 20_000, 20, np.random.default_rng(99))
    with BankClient(*service.address) as client:
        wire_coin = client.mint(8, 20_000, 20, seed=99)
    assert wire_coin.coin_id == local_coin.coin_id

    local = holder_verify(local_coin, local_db, params, HonestChannel(0.0), np.random.default_rng(123))
    remote = client_verify(service.address, wire_coin, params, HonestChannel(0.0), np.random.default_rng(123))
    assert remote.transcript.to_json() == local.transcript.to_json()
    assert remote.check == local.check
    assert np.array_equal(wire_coin.consumed, local_coin.consumed)


def test_check_budget_exhaustion_over_the_wire(service):
    with BankClient(*service.address) as client:
        coin = client.mint(8, 40_000, 20, seed=7)
    assert coin.T == 2
    params = VerdictParameters.from_noise(8, 0.0)
    channel = HonestChannel(0.0)
    rng = np.random.default_rng(2)
    first = client_verify(service.address, coin, params, channel, rng)
    second = client_verify(service.address, coin, params, channel, rng)
    third = client_verify(service.address, coin, params, channel, rng)
    assert (first.check.s, second.check.s) == (1, 2)
    assert first.verdict is second.verdict is Verdict.VALID
    assert third.verdict is Verdict.INVALID
    assert third.check.code == "coin_exhausted"
    assert third.check.s == 2


def test_lossy_round_aborts_client_side(service):
    with BankClient(*service.address) as client:
        coin = client.mint(8, 20_000, 20, seed=11)
    coin_id = coin.coin_id
    params = VerdictParameters(c=0.9, delta=0.1, eta=0.5)
    outcome = client_verify(service.address, coin, params, HonestChannel(0.0), np.random.default_rng(3))
    assert outcome.verdict is Verdict.ABORTED
    assert outcome.check is None
    assert outcome.transcript.l_prime < 10
    assert service.coins[coin_id].s == 0  # abort never reached the bank


def test_client_verify_rejects_forged_coins(service):
    with BankClient(*service.address) as client:
        coin = client.mint(8, 20_000, 20, seed=12)
    coin.segments = ((1, PositionKind.REPLICA), (coin.q, PositionKind.GENUINE))
    with pytest.raises(ValueError, match="honest coins only"):
        client_verify(service.address, coin, VerdictParameters.from_noise(8, 0.0),
                      HonestChannel(0.0), np.random.default_rng(4))


def test_mint_response_contains_no_secrets(service):
    resp = raw_call(service.address, {"type": "mint", "n": 4, "q": 10_000, "l": 10, "seed": 5,
                                      "request_id": "zzz"})
    assert resp["type"] == "mint_ok"
    assert resp["request_id"] == "zzz"
    assert set(resp) == {"type", "request_id", "coin_id", "n", "q", "l", "T"}
    with open(service.journal.path, "rb") as fh:
        record = json.loads(fh.readline())
    assert len(record["key"]) == 32  # the bank keeps it, the wire does not
    assert record["format"] == JOURNAL_FORMAT == 3


def test_malformed_frame_gets_bad_request_and_close(service):
    # Not JSON, JSON that is not an object, invalid UTF-8, nesting too deep,
    # an integer past the interpreter's digit limit.
    for payload in (b"notjs", b"[1,2]", b'"text"', b"null", b"\xff\xfe{}", b"[" * 100_000, b"1" * 5000):
        with socket.create_connection(service.address) as sock:
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            resp = recv_message(sock)
            assert resp == {"type": "error", "code": "bad_request",
                            "message": "malformed frame", "request_id": None}, payload[:10]
            assert recv_message(sock) is None  # server hangs up after a bad frame


def test_missing_fields_are_bad_requests(service):
    resp = raw_call(service.address, {"type": "mint", "request_id": "a"})
    assert (resp["type"], resp["code"]) == ("error", "bad_request")
    assert resp["request_id"] == "a"
    resp = raw_call(service.address, {"type": "teleport", "request_id": "b"})
    assert (resp["type"], resp["code"]) == ("error", "bad_request")
    assert "unknown request type" in resp["message"]


def test_mint_refuses_huge_n_and_the_connection_lives_on(service):
    with socket.create_connection(service.address) as sock:
        for n in (10**6, MAX_N + 2):
            send_message(sock, {"type": "mint", "n": n, "q": 10_000, "l": 10, "request_id": "big"})
            resp = recv_message(sock)
            assert (resp["type"], resp["code"], resp["request_id"]) == ("error", "bad_request", "big")
            assert str(MAX_N) in resp["message"]
        send_message(sock, {"type": "mint", "n": MAX_N, "q": 10_000, "l": 10, "request_id": "ok"})
        resp = recv_message(sock)
        assert (resp["type"], resp["n"], resp["T"]) == ("mint_ok", MAX_N, 1)
    assert len(service.coins) == 1


def test_an_over_limit_reply_gets_bad_request_and_the_connection_lives_on(service, monkeypatch):
    with BankClient(*service.address) as client:
        coin = client.mint(4, 10_000, 10, seed=41)
    # A measure reply costs about 26 bytes per outcome: 150 outcomes pass 3000.
    monkeypatch.setattr(hmqm.service, "MAX_MESSAGE_BYTES", 3000)
    request = {"type": "measure", "coin_id": coin.coin_id, "positions": list(range(150)),
               "alphas": [1] * 150, "beta": 0.0, "eta": 1.0, "seed": 1, "request_id": "big"}
    with socket.create_connection(service.address) as sock:
        send_message(sock, request)
        resp = recv_message(sock)
        assert (resp["type"], resp["code"], resp["request_id"]) == ("error", "bad_request", "big")
        assert "limit of 3000" in resp["message"]
        send_message(sock, dict(request, positions=list(range(10)), alphas=[1] * 10, request_id="small"))
        resp = recv_message(sock)
        assert (resp["type"], resp["request_id"]) == ("measure_ok", "small")


def handler_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if "_handle_connections" in t.name}


def wait_until(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.001)


def ping(sock: socket.socket) -> None:
    """One request and its reply, so a handler has taken the connection."""
    send_message(sock, {"type": "ping", "request_id": "p"})
    assert recv_message(sock)["code"] == "bad_request"


def test_sequential_connections_leave_at_most_one_handler(service):
    before = handler_threads()
    for k in range(50):
        with BankClient(*service.address) as client:
            client.mint(4, 10_000, 10, seed=8100 + k)
        # Once the handler counts itself idle, the next connection reuses it.
        wait_until(lambda: service._idle == 1)
    assert len(handler_threads() - before) <= 1


def test_clients_held_open_at_once_are_all_served_without_a_cap(service):
    before = handler_threads()
    clients = [BankClient(*service.address) for _ in range(8)]
    try:
        coins = [client.mint(4, 10_000, 10, seed=8200 + k) for k, client in enumerate(clients)]
        assert len({coin.coin_id for coin in coins}) == 8
        ninth = raw_call(service.address, {"type": "mint", "n": 4, "q": 10_000, "l": 10,
                                           "seed": 8300, "request_id": "ninth"})
        assert ninth["type"] == "mint_ok"
        assert len(handler_threads() - before) == 9
    finally:
        for client in clients:
            client.close()


def test_stop_ends_every_handler_thread(tmp_path):
    # Idle handlers end at stop(), and so do handlers whose clients close
    # while stop() runs or just after it, with thread switches forced often.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rounds in range(10):
            before = handler_threads()
            svc = BankService(journal_path=str(tmp_path / f"journal{rounds}.ndjson"))
            svc.start()
            socks = [socket.create_connection(svc.address) for _ in range(8)]

            def close_three():
                for sock in socks[3:6]:
                    sock.close()

            closer = threading.Thread(target=close_three)
            try:
                for sock in socks:
                    ping(sock)
                handlers = list(handler_threads() - before)
                assert len(handlers) == 8
                for sock in socks[:3]:
                    sock.close()
                wait_until(lambda: svc._idle == 3)
                closer.start()
            finally:
                svc.stop()
                if closer.ident is not None:
                    closer.join(timeout=10)
                for sock in socks:
                    sock.close()
            for thread in handlers:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in handlers)
            refs = [weakref.ref(thread) for thread in handlers]
            del handlers, thread
            gc.collect()
            assert all(ref() is None for ref in refs)
    finally:
        sys.setswitchinterval(interval)


def test_stop_ends_the_accept_loop(tmp_path):
    svc = BankService(journal_path=str(tmp_path / "journal.ndjson"))
    accept_loop = svc.start()
    wait_until(lambda: sys._current_frames()[accept_loop.ident].f_code.co_name == "accept")
    svc.stop()
    accept_loop.join(timeout=10)
    assert not accept_loop.is_alive()


def test_stop_between_a_connection_end_and_the_idle_count_ends_the_handler(tmp_path):
    # The handler reads the stop flag as unset, then stop() runs in full
    # before the handler counts itself idle: it must not be left waiting.
    svc = BankService(journal_path=str(tmp_path / "journal.ndjson"))
    stoppers = []

    class StopRightAfterTheHandlerLooks(threading.Event):
        def is_set(self):
            seen = super().is_set()
            if not stoppers and sys._getframe(1).f_code.co_name == "_handle_connections":
                stoppers.append(threading.Thread(target=svc.stop))
                stoppers[0].start()
                stoppers[0].join(timeout=0.5)
            return seen

    svc._stop = StopRightAfterTheHandlerLooks()
    svc.start()
    before = handler_threads()
    with socket.create_connection(svc.address) as sock:
        ping(sock)
        (handler,) = handler_threads() - before
    handler.join(timeout=10)
    stoppers[0].join(timeout=10)
    assert not handler.is_alive() and not stoppers[0].is_alive()


def test_serve_exits_on_sigint_with_idle_handlers(tmp_path):
    src = os.path.dirname(os.path.dirname(hmqm.service.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hmqm.cli", "serve", "--listen", "127.0.0.1:0", "--data", str(tmp_path)],
        stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = proc.stderr.readline()
        match = re.search(r"serving on ([0-9.]+):(\d+)", line)
        assert match, f"unexpected serve banner: {line!r}"
        address = (match.group(1), int(match.group(2)))
        socks = [socket.create_connection(address) for _ in range(3)]
        for sock in socks:
            ping(sock)  # three handlers, busy at once
        for sock in socks:
            sock.close()
        with socket.create_connection(address) as sock:
            ping(sock)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()


def test_a_taken_port_closes_the_journal(tmp_path, monkeypatch):
    opened = []

    class SpyJournal(Journal):
        def __init__(self, path):
            super().__init__(path)
            opened.append(self)

    monkeypatch.setattr(hmqm.service, "Journal", SpyJournal)
    with socket.create_server(("127.0.0.1", 0)) as taken:
        with pytest.raises(OSError):
            BankService(port=taken.getsockname()[1], journal_path=str(tmp_path / "j.ndjson"))
    assert len(opened) == 1 and opened[0]._fh.closed


def test_verify_with_missing_params_consumes_no_check(service):
    with BankClient(*service.address) as client:
        coin = client.mint(8, 20_000, 20, seed=21)
    transcript = {"coin_id": coin.coin_id, "l": 20, "triplets": []}
    resp = raw_call(service.address, {"type": "verify", "transcript": transcript, "request_id": "c"})
    assert (resp["type"], resp["code"]) == ("error", "bad_request")
    assert service.coins[coin.coin_id].s == 0


def test_unknown_coin_code(service):
    transcript = {"coin_id": "f" * 32, "l": 10, "triplets": []}
    params = {"c": 0.9, "delta": 0.1}
    resp = raw_call(service.address, {"type": "verify", "transcript": transcript,
                                      "params": params, "request_id": "d"})
    assert (resp["type"], resp["code"]) == ("error", "unknown_coin")


def test_measure_request_validation(service):
    with BankClient(*service.address) as client:
        coin = client.mint(4, 10_000, 10, seed=31)
    base = {"type": "measure", "coin_id": coin.coin_id, "beta": 0.0, "eta": 1.0, "seed": 1}
    resp = raw_call(service.address, dict(base, positions=[0, 1], alphas=[1], request_id="e"))
    assert resp["code"] == "bad_request"
    resp = raw_call(service.address, dict(base, positions=[10_000], alphas=[1], request_id="f"))
    assert resp["code"] == "bad_request"
    resp = raw_call(service.address, dict(base, positions=[0], alphas=[4], request_id="g"))
    assert resp["code"] == "bad_request"
    resp = raw_call(service.address, dict(base, positions=[2**63], alphas=[1], request_id="h"))
    assert (resp["code"], resp["request_id"]) == ("bad_request", "h")
    # beta must be in [0, 1/2] and eta in (0, 1]; NaN is neither.
    for field, value in (("beta", 0.9), ("beta", -1.0), ("beta", math.nan),
                         ("eta", 0.0), ("eta", 7.0), ("eta", math.nan)):
        resp = raw_call(service.address, dict(base, positions=[0], alphas=[1], request_id="k",
                                              **{field: value}))
        assert (resp["type"], resp["code"]) == ("error", "bad_request"), (field, value)
    # Real-valued fields must be JSON numbers: "0.1", true and "1" are
    # refused, not converted, and no check is charged.
    for bad in ("0.1", True, "1"):
        for field in ("beta", "eta"):
            resp = raw_call(service.address, dict(base, positions=[0], alphas=[1], request_id="w",
                                                  **{field: bad}))
            assert (resp["type"], resp["code"]) == ("error", "bad_request"), (field, bad)
        for field in ("c", "delta", "eta", "epsilon"):
            params = dict({"c": 0.9, "delta": 0.1}, **{field: bad})
            transcript = {"coin_id": coin.coin_id, "l": 10, "triplets": []}
            resp = raw_call(service.address, {"type": "verify", "transcript": transcript,
                                              "params": params, "request_id": "x"})
            assert (resp["type"], resp["code"]) == ("error", "bad_request"), (field, bad)
    # Parameters no round can pass with are refused before a check is charged.
    for params in ({"c": 0.9, "delta": math.nan}, {"c": 0.9, "delta": 0.1, "epsilon": math.nan}):
        transcript = {"coin_id": coin.coin_id, "l": 10, "triplets": []}
        resp = raw_call(service.address, {"type": "verify", "transcript": transcript,
                                          "params": params, "request_id": "m"})
        assert (resp["type"], resp["code"]) == ("error", "bad_request"), params
    # An outcome bit beyond int8 is refused before the bank charges a check.
    triplet = {"i": 0, "alpha": 1, "outcome": {"i": 1, "j": 2, "b": 300}}
    transcript = {"coin_id": coin.coin_id, "l": 10, "triplets": [triplet]}
    resp = raw_call(service.address, {"type": "verify", "transcript": transcript,
                                      "params": {"c": 0.9, "delta": 0.1}, "request_id": "i"})
    assert (resp["type"], resp["code"], resp["request_id"]) == ("error", "bad_request", "i")
    # Integer fields are type-checked, not converted: 1.5, "3" and true are
    # refused wherever an integer belongs, and no check is charged.
    good_triplet = {"i": 0, "alpha": 1, "outcome": {"i": 1, "j": 2, "b": 0}}
    for bad in (1.5, "3", True):
        mints = [{"n": bad, "q": 10_000, "l": 10}, {"n": 4, "q": bad, "l": 10},
                 {"n": 4, "q": 10_000, "l": bad}, {"n": 4, "q": 10_000, "l": 10, "seed": bad}]
        for mint in mints:
            resp = raw_call(service.address, dict(mint, type="mint", request_id="t"))
            assert (resp["type"], resp["code"]) == ("error", "bad_request"), mint
        for field, value in (("positions", [bad]), ("alphas", [bad]), ("seed", bad)):
            request = dict(base, positions=[0], alphas=[1], request_id="u")
            request[field] = value
            resp = raw_call(service.address, request)
            assert (resp["type"], resp["code"]) == ("error", "bad_request"), (field, bad)
        transcripts = [
            {"l": bad, "triplets": [good_triplet]},
            {"l": 10, "triplets": [dict(good_triplet, i=bad)]},
            {"l": 10, "triplets": [dict(good_triplet, alpha=bad)]},
        ] + [{"l": 10, "triplets": [dict(good_triplet, outcome=dict(good_triplet["outcome"], **{f: bad}))]}
             for f in ("i", "j", "b")]
        for transcript in transcripts:
            resp = raw_call(service.address, {"type": "verify", "request_id": "v",
                                              "transcript": dict(transcript, coin_id=coin.coin_id),
                                              "params": {"c": 0.9, "delta": 0.1}})
            assert (resp["type"], resp["code"]) == ("error", "bad_request"), transcript
    assert len(service.coins) == 1
    assert service.coins[coin.coin_id].s == 0


def test_an_outcome_bit_outside_0_1_is_refused_not_graded_as_lost(service):
    # Only null marks a lost outcome: an outcome object with b = -2, -1 or 2
    # is a bad_request and charges no check.
    with BankClient(*service.address) as client:
        coin = client.mint(8, 40_000, 20, seed=51)
    db = service.coins[coin.coin_id]
    i, j = matching_set(8).matching(1).pairs[0]
    bits = secret_bits(db.key, np.arange(20), 8)
    triplets = [{"i": p, "alpha": 1, "outcome": {"i": i, "j": j, "b": int(bits[p, i - 1] ^ bits[p, j - 1])}}
                for p in range(20)]

    def verify(first_outcome):
        transcript = {"coin_id": coin.coin_id, "l": 20,
                      "triplets": [dict(triplets[0], outcome=first_outcome)] + triplets[1:]}
        return raw_call(service.address, {"type": "verify", "transcript": transcript,
                                          "params": {"c": 0.9, "delta": 0.1}, "request_id": "b"})

    for b in (-2, -1, 2):
        resp = verify({"i": 0, "j": 0, "b": b})
        assert (resp["type"], resp["code"]) == ("error", "bad_request"), b
        assert "must be 0 or 1" in resp["message"]
    assert db.s == 0
    resp = verify(None)
    assert (resp["type"], resp["valid"], resp["l_prime"], db.s) == ("verify_ok", True, 19, 1)


def test_a_wire_round_hashes_each_position_once_on_the_server(service, monkeypatch):
    with BankClient(*service.address) as client:
        coin = client.mint(8, 200_000, 200, seed=41)
    counter = AesBlockCounter(monkeypatch)
    params = VerdictParameters.from_noise(8, 0.0)
    outcome = client_verify(service.address, coin, params, HonestChannel(0.0), np.random.default_rng(42))
    assert outcome.verdict is Verdict.VALID
    assert counter.count == 2 * 200  # the measure request, then the verify request


def test_minting_a_seed_again_is_refused(service):
    # A coin's id and key depend on the mint seed only; a second mint would
    # hand the same coin a fresh spend counter.
    with BankClient(*service.address) as client:
        coin = client.mint(8, 40_000, 20, seed=7)
    assert coin.T == 2
    params = VerdictParameters.from_noise(8, 0.0)
    rng = np.random.default_rng(2)
    for s in (1, 2):
        outcome = client_verify(service.address, coin, params, HonestChannel(0.0), rng)
        assert (outcome.verdict, outcome.check.s) == (Verdict.VALID, s)
    resp = raw_call(service.address, {"type": "mint", "n": 8, "q": 40_000, "l": 20, "seed": 7,
                                      "request_id": "again"})
    assert (resp["type"], resp["code"], resp["request_id"]) == ("error", "bad_request", "again")
    assert coin.coin_id in resp["message"]
    assert service.coins[coin.coin_id].s == 2
    third = client_verify(service.address, coin, params, HonestChannel(0.0), rng)
    assert (third.verdict, third.check.code) == (Verdict.INVALID, "coin_exhausted")
    with open(service.journal.path) as fh:
        assert [json.loads(line)["event"] for line in fh] == ["mint", "check", "check"]


def test_bank_judges_the_sample_size_over_the_wire(service):
    # One position with the right parity, claiming l = 1 on an l = 100 coin.
    with BankClient(*service.address) as client:
        coin = client.mint(4, 1_000_000, 100, seed=61)
    i, j = matching_set(4).matching(1).pairs[0]
    bits = secret_bits(service.coins[coin.coin_id].key, np.array([0]), 4)
    triplet = {"i": 0, "alpha": 1, "outcome": {"i": i, "j": j, "b": int(bits[0, i - 1] ^ bits[0, j - 1])}}
    resp = raw_call(service.address, {
        "type": "verify", "transcript": {"coin_id": coin.coin_id, "l": 1, "triplets": [triplet]},
        "params": {"c": 0.9, "delta": 0.1}, "request_id": "short",
    })
    assert (resp["type"], resp["valid"], resp.get("code"), resp["s"]) == (
        "verify_ok", False, "wrong_sample_size", 1)
    assert service.coins[coin.coin_id].s == 1


def test_journal_replay_restores_counter_and_secrets(tmp_path):
    path = str(tmp_path / "bank.ndjson")
    svc = BankService(journal_path=path)
    svc.start()
    try:
        with BankClient(*svc.address) as client:
            coin = client.mint(4, 10_000, 10, seed=41)
        params = VerdictParameters.from_noise(4, 0.0)
        outcome = client_verify(svc.address, coin, params, HonestChannel(0.0), np.random.default_rng(5))
        assert outcome.verdict is Verdict.VALID
        key_before = svc.coins[coin.coin_id].key
    finally:
        svc.stop()

    svc2 = BankService(journal_path=path)
    try:
        db = svc2.coins[coin.coin_id]
        assert db.s == 1
        assert db.T == 1
        assert db.key == key_before
        positions = np.arange(0, 10_000, 997)
        assert np.array_equal(secret_bits(db.key, positions, 4), secret_bits(key_before, positions, 4))
        svc2.start()
        second = client_verify(svc2.address, coin, params, HonestChannel(0.0), np.random.default_rng(6))
        assert second.check.code == "coin_exhausted"
    finally:
        svc2.stop()


def test_journal_corruption_is_refused(tmp_path):
    good = json.dumps({"event": "check", "coin_id": "c", "s": 1}, sort_keys=True)

    # An unterminated final line is an append a crash cut short: it is cut
    # off, not refused.  Damage before the last newline is refused.
    unterminated = tmp_path / "a.ndjson"
    unterminated.write_bytes(b'{"event": "mint"')
    assert Journal.replay(str(unterminated)) == {}
    assert unterminated.read_bytes() == b""
    unterminated.write_bytes(b'{"event": "mint"\n' + (good + "\n").encode())
    with pytest.raises(JournalCorruptError) as exc_info:
        Journal.replay(str(unterminated))
    assert exc_info.value.offset == 0

    bad_json = tmp_path / "b.ndjson"
    prefix = json.dumps({
        "event": "mint", "coin_id": "c", "n": 2, "q": 1000, "l": 1, "T": 1, "s": 0,
        "key": "ff" * 16, "format": JOURNAL_FORMAT,
    }, sort_keys=True) + "\n"
    bad_json.write_bytes(prefix.encode() + b"not json\n")
    with pytest.raises(JournalCorruptError) as exc_info:
        Journal.replay(str(bad_json))
    assert exc_info.value.offset == len(prefix.encode())

    # Lines that make json.loads raise something other than JSONDecodeError:
    # nesting past the recursion limit, an integer past the digit limit.
    for line in (b"[" * 100_000, b"1" * 5000):
        bad_json.write_bytes(prefix.encode() + line + b"\n")
        with pytest.raises(JournalCorruptError) as exc_info:
            Journal.replay(str(bad_json))
        assert exc_info.value.offset == len(prefix.encode())

    bad_record = tmp_path / "c.ndjson"
    bad_record.write_bytes(json.dumps({"event": "warp"}).encode() + b"\n")
    with pytest.raises(JournalCorruptError, match="bad record"):
        Journal.replay(str(bad_record))

    orphan_check = tmp_path / "d.ndjson"
    orphan_check.write_bytes((good + "\n").encode())
    with pytest.raises(JournalCorruptError):
        Journal.replay(str(orphan_check))  # check for a coin never minted

    # A mint record with a secrets table and no key is refused, as is a
    # key of the wrong length.
    for payload in ({"secrets": "ffff"}, {"key": "ff" * 8}):
        old_format = tmp_path / "e.ndjson"
        old_format.write_bytes(json.dumps(dict(
            {"event": "mint", "coin_id": "c", "n": 2, "q": 1000, "l": 1, "T": 1, "s": 0,
             "format": JOURNAL_FORMAT}, **payload
        )).encode() + b"\n")
        with pytest.raises(JournalCorruptError, match="bad record"):
            Journal.replay(str(old_format))


def test_journal_mint_record_round_trip(tmp_path):
    path = str(tmp_path / "rt.ndjson")
    _, db = bank_mint(4, 10_000, 10, np.random.default_rng(51))
    journal = Journal(path)
    journal.append({
        "event": "mint", "coin_id": db.coin_id, "n": db.n, "q": db.q, "l": db.l,
        "T": db.T, "s": 0, "key": db.key.hex(), "format": JOURNAL_FORMAT,
    })
    journal.append({"event": "check", "coin_id": db.coin_id, "s": 1})
    journal.append({"event": "check", "coin_id": db.coin_id, "s": 1})  # replayed write
    journal.close()
    coins = Journal.replay(path)
    rebuilt = coins[db.coin_id]
    assert rebuilt.key == db.key
    assert rebuilt.s == 1  # duplicate check records collapse monotonically


def mint_record(**fields):
    record = {"event": "mint", "coin_id": "c", "n": 4, "q": 10_000, "l": 10, "T": 1, "s": 0,
              "key": "ab" * 16, "format": JOURNAL_FORMAT}
    record.update(fields)
    return json.dumps({k: v for k, v in record.items() if v is not None}, sort_keys=True) + "\n"


def test_journal_refuses_other_formats(tmp_path):
    # Format 1 records (SHAKE-256 secrets) had no format field; they, an
    # explicit format 1 and format 2 (keyed BLAKE2b secrets) are refused and
    # named.
    path = tmp_path / "f.ndjson"
    for fmt in (None, 1, 2, "3"):
        path.write_text(mint_record(format=fmt))
        with pytest.raises(JournalCorruptError) as exc_info:
            Journal.replay(str(path))
        assert exc_info.value.offset == 0
        assert "format 1 (SHAKE-256 secrets)" in str(exc_info.value)
        assert "format 2 (keyed BLAKE2b secrets)" in str(exc_info.value)


def test_a_torn_final_journal_line_is_cut_and_the_bank_restarts(tmp_path, caplog):
    path = tmp_path / "torn.ndjson"
    check = json.dumps({"event": "check", "coin_id": "c", "s": 1}, sort_keys=True)
    path.write_text(mint_record() + check[:17])  # a crash in the middle of an append
    with caplog.at_level("WARNING", logger="hmqm.service"):
        coins = Journal.replay(str(path))
    assert (coins["c"].n, coins["c"].T, coins["c"].s) == (4, 1, 0)
    assert path.read_text() == mint_record()
    assert "unterminated final line of 17 bytes" in caplog.text
    journal = Journal(str(path))
    journal.append({"event": "check", "coin_id": "c", "s": 1})
    journal.close()
    caplog.clear()
    with caplog.at_level("WARNING", logger="hmqm.service"):
        assert Journal.replay(str(path))["c"].s == 1
    assert path.read_text() == mint_record() + check + "\n"
    assert caplog.text == ""


JOURNAL_KEYS = ("event", "coin_id", "n", "q", "l", "T", "s", "key", "format")


def test_any_journal_replays_or_is_corrupt(tmp_path):
    # Whatever the journal holds, replay returns a coin table or raises
    # JournalCorruptError, and nothing else.
    path = tmp_path / "fuzz.ndjson"
    scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
               | st.sampled_from(["mint", "check", "c", "ab" * 16, "zz"]))
    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
    near_mint = st.fixed_dictionaries({
        "event": st.just("mint"), "coin_id": st.sampled_from(["c", "d"]),
        "n": st.sampled_from([2, 4, 5, MAX_N + 2]) | values,
        "q": st.sampled_from([10_000, 9_999, 2**63]) | values,
        "l": st.sampled_from([10, 0]) | values, "T": st.sampled_from([1, 2]) | values,
        "s": st.integers(-1, 2) | values, "key": st.sampled_from(["ab" * 16, "ab" * 8, "zz"]) | values,
        "format": st.sampled_from([JOURNAL_FORMAT, 1]) | values,
    })
    near_check = st.fixed_dictionaries({
        "event": st.just("check"), "coin_id": st.sampled_from(["c", "d"]) | values,
        "s": st.integers(-1, 3) | values,
    })
    records = near_mint | near_check | st.dictionaries(st.sampled_from(JOURNAL_KEYS), values) | values
    hostile = st.sampled_from([b"[" * 100_000, b"1" * 5000])  # past the parser's depth, int digits
    lines = st.lists(records.map(lambda r: json.dumps(r).encode()) | st.binary(max_size=12) | hostile,
                     max_size=6)

    @settings(max_examples=200, deadline=None)
    @given(lines, st.booleans())
    def replay(chunks, terminated):
        path.write_bytes(b"\n".join(chunks) + (b"\n" if terminated and chunks else b""))
        try:
            coins = Journal.replay(str(path))
        except JournalCorruptError:
            return
        assert all(0 <= db.s <= db.T for db in coins.values())

    replay()


def test_journal_replay_enforces_the_coin_shape(tmp_path):
    # A hand-edited record may not bring back a coin that bank_mint refuses.
    path = tmp_path / "g.ndjson"
    valid = mint_record(coin_id="ok", n=MAX_N, q=2**63 - 1, l=10, T=(2**63 - 1) // 10_000, s=3)
    bad_records = [
        mint_record(n=100_000),  # past MAX_N
        mint_record(n=5),
        mint_record(n=0),
        mint_record(q=9_999),  # T would be 0
        mint_record(q=2**63, T=2**63 // 10_000),
        mint_record(l=0),
        mint_record(T=2),  # T is not q // (1000 l)
        mint_record(s=2),  # more checks than T
        mint_record(s=-1),
        mint_record(n=4.0),
        mint_record(coin_id="ok"),  # a second mint of one coin would reset its counter
    ] + [json.dumps({"event": "check", "coin_id": "ok", "s": s}) + "\n"
         for s in (0, (2**63 - 1) // 10_000 + 1, 1.5)]  # a counter the bank never writes
    for record in bad_records:
        path.write_text(valid + record)
        with pytest.raises(JournalCorruptError, match="bad record") as exc_info:
            Journal.replay(str(path))
        assert exc_info.value.offset == len(valid.encode())

    path.write_text(valid + mint_record() + '{"event": "check", "coin_id": "c", "s": 1}\n')
    coins = Journal.replay(str(path))
    assert (coins["ok"].n, coins["ok"].T, coins["ok"].s) == (MAX_N, (2**63 - 1) // 10_000, 3)
    assert (coins["c"].n, coins["c"].q, coins["c"].T, coins["c"].s) == (4, 10_000, 1, 1)


def test_concurrent_mints_get_distinct_coins(service):
    ids = []
    lock = threading.Lock()

    def worker(seed):
        with BankClient(*service.address) as client:
            for k in range(5):
                coin = client.mint(4, 10_000, 10, seed=seed * 100 + k)
                with lock:
                    ids.append(coin.coin_id)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(ids) == 20
    assert len(set(ids)) == 20
    assert len(service.coins) == 20


def test_client_detects_request_id_mismatch():
    listener = socket.create_server(("127.0.0.1", 0))

    def bad_server():
        conn, _ = listener.accept()
        with conn:
            recv_message(conn)
            send_message(conn, {"type": "mint_ok", "request_id": "wrong"})

    t = threading.Thread(target=bad_server, daemon=True)
    t.start()
    host, port = listener.getsockname()[:2]
    with pytest.raises(ServiceError, match="does not match"):
        with BankClient(host, port) as client:
            client.mint(4, 10_000, 10)
    t.join(timeout=5)
    listener.close()


def test_framing_round_trip():
    a, b = socket.socketpair()
    try:
        payload = {"zeta": 1, "alpha": [1, 2, 3], "nested": {"k": None}}
        send_message(a, payload)
        assert recv_message(b) == payload
        a.close()
        assert recv_message(b) is None  # clean EOF at a frame boundary
    finally:
        b.close()


def test_framing_mid_frame_close():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">I", 10) + b"abc")
        a.close()
        with pytest.raises(ServiceError, match="mid-frame"):
            recv_message(b)
    finally:
        b.close()


def test_framing_oversized():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
        with pytest.raises(ServiceError, match="exceeds"):
            recv_message(b)
        with pytest.raises(ServiceError, match="exceeds"):
            send_message(a, {"k": "x" * (MAX_MESSAGE_BYTES + 100)})
    finally:
        a.close()
        b.close()


def test_journal_path_from_environment(tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    monkeypatch.setenv("HMQM_DATA", str(data_dir))
    svc = BankService()
    try:
        assert svc.journal.path == str(data_dir / DEFAULT_JOURNAL)
    finally:
        svc.stop()

    explicit = tmp_path / "explicit.ndjson"
    monkeypatch.setenv("HMQM_DATA", str(explicit))
    svc = BankService()
    try:
        assert svc.journal.path == str(explicit)
    finally:
        svc.stop()


def test_production_coin_over_the_wire(service):
    # The README's production point: n=8, q=10^9, l=18000, T=55.  Mint and
    # one honest round stay small on the wire and in the journal.
    resp = raw_call(service.address, {"type": "mint", "n": 8, "q": 10**9, "l": 18_000, "seed": 55,
                                      "request_id": "p"})
    assert (resp["type"], resp["T"]) == ("mint_ok", 55)
    assert 4 + len(json.dumps(resp, sort_keys=True).encode()) < 1024
    with open(service.journal.path, "rb") as fh:
        (record,) = fh.read().splitlines()
    assert len(record) < 1024

    coin = Coin.fresh(resp["coin_id"], resp["n"], resp["q"], resp["l"], resp["T"])
    params = VerdictParameters.from_noise(8, 0.0)
    outcome = client_verify(service.address, coin, params, HonestChannel(0.0), np.random.default_rng(56))
    assert outcome.verdict is Verdict.VALID
    assert outcome.check.correct_count == 18_000 and outcome.check.s == 1
    assert len(coin.consumed) == 18_000


WIRE_KEYS = ("type", "request_id", "n", "q", "l", "seed", "coin_id", "positions", "alphas",
             "beta", "eta", "transcript", "params", "triplets", "i", "j", "b", "alpha",
             "outcome", "c", "delta", "epsilon")


def test_any_json_frame_gets_one_reply_and_the_service_lives_on(service, monkeypatch):
    thread_errors = []
    monkeypatch.setattr(threading, "excepthook", lambda args: thread_errors.append(args.exc_value))
    with BankClient(*service.address) as client:
        coin = client.mint(4, 10_000, 10, seed=71)
    scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
               | st.just(coin.coin_id) | st.sampled_from(["mint", "measure", "verify"]))
    values = st.recursive(scalars, lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(WIRE_KEYS) | st.text(max_size=4), inner, max_size=6)
    ), max_leaves=16)

    @settings(max_examples=300, deadline=None)
    @given(values)
    def one_frame(value):
        with socket.create_connection(service.address, timeout=10) as sock:
            send_message(sock, value)
            sock.shutdown(socket.SHUT_WR)
            reply = recv_message(sock)
            assert reply is not None and reply["type"] in {"mint_ok", "measure_ok", "verify_ok", "error"}
            assert recv_message(sock) is None

    one_frame()
    assert thread_errors == []
    with BankClient(*service.address) as client:
        assert client.mint(4, 10_000, 10, seed=72).T == 1


def test_any_transcript_gets_one_reply_and_charges_at_most_one_check(service, monkeypatch):
    thread_errors = []
    monkeypatch.setattr(threading, "excepthook", lambda args: thread_errors.append(args.exc_value))
    with BankClient(*service.address) as client:
        coin = client.mint(4, 2**40, 2, seed=91)  # T is large enough never to run out here
    db = service.coins[coin.coin_id]
    small = st.integers(-1, 5)
    field = (small | st.integers() | st.none() | st.booleans() | st.floats() | st.text(max_size=3)
             | st.lists(small, max_size=2) | st.dictionaries(st.sampled_from("ijb"), small, max_size=2))
    outcome = st.none() | st.fixed_dictionaries({"i": small | field, "j": small | field, "b": small | field})

    def graded(position, alpha, pick):
        """A triplet whose outcome has the right parity."""
        i, j = matching_set(4).matching(alpha).pairs[pick]
        bits = secret_bits(db.key, np.array([position]), 4)[0]
        return {"i": position, "alpha": alpha, "outcome": {"i": i, "j": j, "b": int(bits[i - 1] ^ bits[j - 1])}}

    right = st.builds(graded, st.integers(0, 20), st.integers(1, 3), st.integers(0, 1))
    triplet = right | st.fixed_dictionaries({"i": small | field, "alpha": small | field, "outcome": outcome | field})
    transcript = st.fixed_dictionaries({
        "coin_id": st.just(coin.coin_id), "l": small | field, "triplets": st.lists(triplet | field, max_size=4),
    })

    @settings(max_examples=300, deadline=None)
    @given(transcript)
    def one_verify(value):
        s_before = db.s
        with socket.create_connection(service.address, timeout=10) as sock:
            send_message(sock, {"type": "verify", "transcript": value, "params": {"c": 0.9, "delta": 0.1},
                                "request_id": "f"})
            sock.shutdown(socket.SHUT_WR)
            reply = recv_message(sock)
            assert recv_message(sock) is None
        assert reply["type"] in {"verify_ok", "error"}
        if reply["type"] == "verify_ok":
            assert db.s - s_before == 1 and reply["s"] == db.s
            if reply["valid"]:  # graded on the coin's own sample size
                assert value["l"] == len(value["triplets"]) == coin.l
        else:
            assert reply["code"] == "bad_request" and db.s == s_before

    one_verify()
    assert thread_errors == []
