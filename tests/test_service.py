import gc
import json
import socket
import struct
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmqm.protocol import (
    MAX_N,
    Coin,
    HonestChannel,
    PositionKind,
    Verdict,
    VerdictParameters,
    bank_mint,
    holder_verify,
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
    assert wire_coin.consumed == local_coin.consumed


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
    assert record["format"] == JOURNAL_FORMAT == 2


def test_malformed_frame_gets_bad_request_and_close(service):
    # Not JSON, JSON that is not an object, invalid UTF-8, nesting too deep.
    for payload in (b"notjs", b"[1,2]", b'"text"', b"null", b"\xff\xfe{}", b"[" * 100_000):
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


def test_finished_connection_threads_are_released(service):
    def handlers():
        return {t for t in threading.enumerate() if "_serve_connection" in t.name}

    before = handlers()
    with BankClient(*service.address) as client:
        client.mint(4, 10_000, 10, seed=81)  # the handler is running once this returns
        (handler,) = handlers() - before
    ref = weakref.ref(handler)
    handler.join(timeout=10)
    assert not handler.is_alive()
    del handler
    gc.collect()
    assert ref() is None


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
    # An outcome bit beyond int8 is refused before the bank charges a check.
    triplet = {"i": 0, "alpha": 1, "outcome": {"i": 1, "j": 2, "b": 300}}
    transcript = {"coin_id": coin.coin_id, "l": 10, "triplets": [triplet]}
    resp = raw_call(service.address, {"type": "verify", "transcript": transcript,
                                      "params": {"c": 0.9, "delta": 0.1}, "request_id": "i"})
    assert (resp["type"], resp["code"], resp["request_id"]) == ("error", "bad_request", "i")
    assert service.coins[coin.coin_id].s == 0


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

    unterminated = tmp_path / "a.ndjson"
    unterminated.write_bytes(b'{"event": "mint"')
    with pytest.raises(JournalCorruptError) as exc_info:
        Journal.replay(str(unterminated))
    assert exc_info.value.offset == 0
    assert "unterminated final line" in str(exc_info.value)

    bad_json = tmp_path / "b.ndjson"
    prefix = json.dumps({
        "event": "mint", "coin_id": "c", "n": 2, "q": 1000, "l": 1, "T": 1, "s": 0,
        "key": "ff" * 16, "format": JOURNAL_FORMAT,
    }, sort_keys=True) + "\n"
    bad_json.write_bytes(prefix.encode() + b"not json\n")
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
    # Format 1 records (SHAKE-256 secrets) had no format field; both they
    # and an explicit format 1 are refused and named.
    path = tmp_path / "f.ndjson"
    for fmt in (None, 1, 3, "2"):
        path.write_text(mint_record(format=fmt))
        with pytest.raises(JournalCorruptError, match="format 1 \\(SHAKE-256 secrets\\)") as exc_info:
            Journal.replay(str(path))
        assert exc_info.value.offset == 0


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
