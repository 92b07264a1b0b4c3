"""Bank service: mint and check coins over a socket, secrets never leave.

Wire format: every message is a 4-byte big-endian length followed by UTF-8
JSON object with sorted keys.  Requests carry a client-chosen request_id
echoed in the response.  A frame that is not such an object gets a
bad_request error and the connection is closed.  A reply that would exceed
the frame limit (MAX_MESSAGE_BYTES) is not sent: the request gets a
bad_request error naming the limit instead, and the connection stays open.
If that error does not fit either, because the request_id alone fills a
frame, the bad_request goes out with a null request_id and the connection
is closed, as for a malformed frame.  A measure or round whose reply might
not fit the limit is refused before any secret is derived.
`mint_ok` carries the coin's id and parameters; the holder keeps the coin
(its layout, and its sampler: a key and two integers) client-side and
draws each round's sample from it.  A coin's id and key depend on the mint
seed only, so a mint that would recreate a coin the bank holds is a
bad_request.  Because secrets stay in the service, the holder measures
genuine positions by sending the sampled positions, bases,
channel parameters (beta in [0, 1/2], eta in (0, 1]) and a measurement
seed in a `measure` request, and the service runs the same exact sampling
engine used in-process, which makes remote runs bit-identical to local
ones under the same seeds.  A `verify` request carries a whole transcript
and the verdict parameters.  A `round` request carries a measure's fields
with the verdict parameters in place of eta (the measurement uses
params.eta), and is one exchange per verification round: the service
measures, ends the round with protocol's `_finish_round` and replies
`round_ok` with the outcomes and, unless the holder's abort rule fired, the
verify_ok body as `check`.  It charges and journals exactly what a measure
followed by a verify of the transcript built from it would.  The
check grades the bank's own measurement: its nodes, pairs and bits are the
bank's, and positions and bases were range-checked before measuring, so only
the holder's sample is judged (its size, then duplicates), and a present
outcome's bit is its parity XOR its error flag, so l' minus the errors are
correct.  A round thus derives each present position's AES blocks once;
a measure and a verify derive them once each.  `client_verify` is the
in-process round with one `round` request in place of the measurement and
the check: the planning, the outcome codec, the abort rule and the verdict
are protocol's own.  A request that races stop() and finds the journal
closed gets an `unavailable` error, with no coin added and no check charged.

State is durable: every mint and every check-counter increment is appended
to a newline-delimited JSON journal and fsynced before the response is
sent.  A mint record carries the coin's parameters, its secret key in hex
and `"format": 3` (JOURNAL_FORMAT: secrets are AES-128 of the position and
a block counter under the key), a check record the new counter value.  On
startup the journal is replayed.  A final line without its newline can only
be an append cut short by a crash, before its fsync and before any reply,
so replay truncates the file to its last newline and logs that it did.  Any
other malformed line aborts startup with its byte offset.  That includes a
mint record without a key, a coin shape `bank_mint` would refuse, a second
mint record of one coin, a coin_id that is not a string, a check counter
outside [1, T], and a mint record of any other format: journals written
with SHAKE-256 secrets (format 1, which had no format field) or keyed
BLAKE2b secrets (format 2) are refused, not migrated.

Each connection is served by one handler thread, from its first request to
its close.  A handler outlives its connection: it then waits for the next
one, and the accept loop starts a new handler only when every handler is
busy, so there are as many handlers as connections were ever open at once,
with no cap.  stop() ends the accept loop and the handlers that wait, and
a handler whose connection ends after stop() exits.
"""

import json
import logging
import os
import queue
import socket
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .protocol import (
    KEY_BYTES,
    BankDatabase,
    CheckResult,
    Coin,
    HonestChannel,
    UnknownCoinError,
    VerdictParameters,
    VerificationTranscript,
    VerifyOutcome,
    bank_check,
    bank_mint,
    coin_budget,
    decode_outcomes,
    encode_outcomes,
    measure_positions,
    wire_float,
    wire_int,
    wire_ints,
    _finish_round,
    _plan_round,
)

MAX_MESSAGE_BYTES = 64 * 1024 * 1024
DATA_ENV_VAR = "HMQM_DATA"
DEFAULT_JOURNAL = "hmqm-journal.ndjson"
# The longest the accept loop waits in one accept().  CPython runs a signal's
# handler in the main thread, between bytecodes or when a blocking call there
# fails with EINTR; a signal that lands just before the call (Ctrl-C while the
# loop hands off a connection) interrupts nothing, and is handled when the
# call times out.
ACCEPT_POLL_S = 0.5
# The key-to-secret map of mint records: AES-128_key(i || w), w counting
# 128-bit blocks.  Format 1 was SHAKE-256(key || i), format 2 keyed BLAKE2b.
JOURNAL_FORMAT = 3

log = logging.getLogger(__name__)


class ServiceError(Exception):
    pass


class ErrorReply(ServiceError):
    """The bank refused a request with an error reply; the connection is fine."""


class JournalClosedError(ServiceError):
    """An append to a journal that stop() closed: the bank is shutting down."""


class JournalCorruptError(ServiceError):
    def __init__(self, path: str, offset: int, reason: str):
        super().__init__(f"journal {path} corrupt at byte {offset}: {reason}")
        self.offset = offset


def check_port(port: int) -> int:
    """port, which must be in 0-65535: getaddrinfo would wrap a larger one
    modulo 65536, and bind would raise OverflowError.  Raises ValueError
    otherwise."""
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in 0-65535, got {port}")
    return port


def send_message(sock: socket.socket, obj: dict) -> None:
    payload = json.dumps(obj, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ServiceError(f"message of {len(payload)} bytes exceeds the limit of {MAX_MESSAGE_BYTES}")
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one framed JSON object; None on clean EOF at a frame boundary."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_MESSAGE_BYTES:
        raise ServiceError(f"frame of {length} bytes exceeds the limit")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ServiceError("connection closed mid-frame")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too many digits
        raise ServiceError(f"malformed frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ServiceError("frame is not a JSON object")
    return message


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(count - got)
        if not chunk:
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


class Journal:
    """Append-only NDJSON log with fsync-before-acknowledge semantics."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._fh = open(path, "ab")

    def append(self, record: dict) -> None:
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            if self._fh.closed:
                raise JournalClosedError(f"journal {self.path} is closed: the bank is stopping")
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            self._fh.close()

    @staticmethod
    def replay(path: str) -> dict[str, BankDatabase]:
        """Rebuild the coin table from the journal; strict about every line.

        An unterminated final line is cut off the file: it is an append a
        crash interrupted before its fsync, so no reply ever reported it,
        and left in place the next append would glue onto it."""
        coins: dict[str, BankDatabase] = {}
        if not os.path.exists(path):
            return coins
        offset = 0
        with open(path, "rb") as fh:
            data = fh.read()
        while offset < len(data):
            end = data.find(b"\n", offset)
            if end == -1:
                with open(path, "r+b") as fh:
                    fh.truncate(offset)
                    fh.flush()
                    os.fsync(fh.fileno())
                log.warning("journal %s: cut an unterminated final line of %d bytes at byte %d",
                            path, len(data) - offset, offset)
                break
            line = data[offset:end]
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too many digits
                raise JournalCorruptError(path, offset, str(exc)) from exc
            try:
                _apply_record(coins, record)
            except (KeyError, TypeError, ValueError) as exc:
                raise JournalCorruptError(path, offset, f"bad record: {exc}") from exc
            offset = end + 1
        return coins


def _apply_record(coins: dict[str, BankDatabase], record: dict) -> None:
    event = record["event"]
    if event in ("mint", "check") and type(record["coin_id"]) is not str:
        raise ValueError(f"coin_id must be a string, got {record['coin_id']!r}")
    if event == "mint":
        if record["coin_id"] in coins:
            raise ValueError(f"second mint record for coin {record['coin_id']!r}")
        if record.get("format") != JOURNAL_FORMAT:
            raise ValueError(
                f"mint record of format {record.get('format')!r}, this bank reads format "
                f"{JOURNAL_FORMAT} (AES-128 secrets); format 1 (SHAKE-256 secrets) and "
                "format 2 (keyed BLAKE2b secrets) are not supported"
            )
        key = bytes.fromhex(record["key"])
        if len(key) != KEY_BYTES:
            raise ValueError(f"key of {len(key)} bytes")
        n, q, l, T, s = (record[name] for name in ("n", "q", "l", "T", "s"))
        if not all(type(v) is int for v in (n, q, l, T, s)):
            raise ValueError("n, q, l, T and s must be integers")
        if T != coin_budget(n, q, l) or not 0 <= s <= T:
            raise ValueError(f"T={T} and s={s} do not fit a coin with q={q}, l={l}")
        coins[record["coin_id"]] = BankDatabase(
            coin_id=record["coin_id"], n=n, q=q, l=l, T=T, key=key, s=s,
        )
    elif event == "check":
        db = coins[record["coin_id"]]
        s = record["s"]
        if type(s) is not int or not 0 < s <= db.T:
            raise ValueError(f"check counter {s!r} outside [1, T={db.T}]")
        db.s = max(db.s, s)
    else:
        raise ValueError(f"unknown event {event!r}")


class BankService:
    """Threaded socket server wrapping a durable bank database.

    serve_forever() hands each accepted connection to an idle handler
    thread through a queue, and starts a daemon handler only when none is
    idle.  A handler whose connection closes counts itself idle and takes
    the next one; stop() ends every idle handler."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, journal_path: str | None = None):
        check_port(port)
        if journal_path is None:
            journal_path = os.environ.get(DATA_ENV_VAR, DEFAULT_JOURNAL)
        if os.path.isdir(journal_path):
            journal_path = os.path.join(journal_path, DEFAULT_JOURNAL)
        self.coins = Journal.replay(journal_path)
        self.journal = Journal(journal_path)
        self._coins_lock = threading.Lock()
        self._coin_locks: dict[str, threading.Lock] = {cid: threading.Lock() for cid in self.coins}
        # As socket.create_server, which closes its socket on OSError only: a
        # host that bind refuses with TypeError would leak it.
        self._sock = socket.socket()
        try:
            if os.name != "nt":  # on Windows the option lets another socket take the port
                self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self._sock.listen()
            self._sock.settimeout(ACCEPT_POLL_S)
        except BaseException:
            self._sock.close()
            self.journal.close()
            raise
        self._stop = threading.Event()
        self._connections: queue.SimpleQueue[socket.socket | None] = queue.SimpleQueue()
        self._idle_lock = threading.Lock()
        self._idle = 0

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def serve_forever(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            with self._idle_lock:
                self._connections.put(conn)
                if self._idle:
                    self._idle -= 1
                    continue
            threading.Thread(target=self._handle_connections, daemon=True).start()

    def start(self) -> threading.Thread:
        t = threading.Thread(target=self.serve_forever, daemon=True)
        t.start()
        return t

    def stop(self) -> None:
        self._stop.set()
        try:
            # close() alone does not wake a thread blocked in accept() on Linux.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        with self._idle_lock:
            for _ in range(self._idle):
                self._connections.put(None)
            self._idle = 0
        self.journal.close()

    def _handle_connections(self) -> None:
        """A handler thread: serve connections from the queue one after
        another until stop() hands it None.  `_idle` counts the handlers
        waiting on the queue beyond the connections already in it, so that
        stop() can hand each of them a None."""
        while (conn := self._connections.get()) is not None:
            self._serve_connection(conn)
            with self._idle_lock:
                if self._stop.is_set():
                    return
                self._idle += 1

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve the connection's requests until it closes, stop() or not:
        after stop() a request that needs the journal gets `unavailable`."""
        with conn:
            while True:
                try:
                    request = recv_message(conn)
                except (ServiceError, ConnectionError):
                    _hang_up(conn, "malformed frame")
                    return
                if request is None:
                    return
                try:
                    reply = self._dispatch(request)
                    try:
                        send_message(conn, reply)
                    except ServiceError as exc:  # over the frame limit, nothing was sent
                        try:
                            send_message(conn, _error(request.get("request_id"), "bad_request",
                                                      f"reply not sent: {exc}"))
                        except ServiceError:  # the request_id alone fills a frame
                            _hang_up(conn, "reply not sent: the request_id does not fit a frame")
                            return
                except OSError:
                    return

    def _dispatch(self, request: dict) -> dict:
        request_id = request.get("request_id")
        try:
            kind = request["type"]
            if kind == "mint":
                return self._handle_mint(request)
            if kind == "measure":
                return self._handle_measure(request)
            if kind == "verify":
                return self._handle_verify(request)
            if kind == "round":
                return self._handle_round(request)
            return _error(request_id, "bad_request", f"unknown request type {kind!r}")
        except UnknownCoinError as exc:
            return _error(request_id, "unknown_coin", str(exc))
        except JournalClosedError as exc:  # nothing was added or charged
            return _error(request_id, "unavailable", str(exc))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            return _error(request_id, "bad_request", str(exc))

    def _handle_mint(self, request: dict) -> dict:
        n, q, l = (wire_int(request[name], name) for name in ("n", "q", "l"))
        seed = request.get("seed")
        rng = np.random.default_rng(None if seed is None else wire_int(seed, "seed"))
        _, db = bank_mint(n, q, l, rng)
        coin = {"coin_id": db.coin_id, "n": n, "q": q, "l": l, "T": db.T}
        with self._coins_lock:
            if db.coin_id in self.coins:
                # Id and key depend on the seed only: minting it again
                # would bring the coin back with a fresh spend counter.
                raise ValueError(f"coin {db.coin_id} already exists; a seed mints one coin")
            self.journal.append({"event": "mint", **coin, "s": 0, "key": db.key.hex(),
                                 "format": JOURNAL_FORMAT})
            self.coins[db.coin_id] = db
            self._coin_locks[db.coin_id] = threading.Lock()
        return {"type": "mint_ok", "request_id": request.get("request_id"), **coin}

    def _coin(self, coin_id: str) -> tuple[BankDatabase, threading.Lock]:
        with self._coins_lock:
            if coin_id not in self.coins:
                raise UnknownCoinError(f"no coin {coin_id!r}")
            return self.coins[coin_id], self._coin_locks[coin_id]

    def _measure(self, db: BankDatabase, request: dict,
                 eta) -> tuple[Coin, np.ndarray, np.ndarray, tuple, np.ndarray]:
        """Validate a measurement's fields and measure: the bank's view of
        the coin, the positions, the bases, the outcomes (pair_i, pair_j,
        answer) and their error flags.  A sample whose reply might not fit
        a frame is refused before any secret is derived."""
        positions, alphas = (wire_ints(request[name], name) for name in ("positions", "alphas"))
        if positions.shape != alphas.shape:
            raise ValueError("positions and alphas must be equal-length lists")
        size = _reply_bound(request.get("request_id"), db.n, positions.size)
        if size > MAX_MESSAGE_BYTES:
            raise ValueError(f"a reply of up to {size} bytes exceeds the limit of {MAX_MESSAGE_BYTES}")
        if np.any(positions < 0) or np.any(positions >= db.q):
            raise ValueError("position out of range")
        if np.any(alphas < 1) or np.any(alphas > db.n - 1):
            raise ValueError("alpha out of range")
        beta = HonestChannel(wire_float(request["beta"], "beta")).beta
        eta = wire_float(eta, "eta")
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {eta}")
        view = Coin.fresh(db.coin_id, db.n, db.q, db.l, db.T)
        pair_i, pair_j, answer, errors = measure_positions(
            db.key, view, positions, alphas, beta, eta,
            np.random.default_rng(wire_int(request["seed"], "seed")),
        )
        return view, positions, alphas, (pair_i, pair_j, answer), errors

    def _check(self, transcript: VerificationTranscript, params: VerdictParameters,
               errors: np.ndarray | None = None) -> CheckResult:
        """Grade a transcript under its coin's lock, charging one check;
        errors are those of the bank's own measurement of it, if it made one."""
        db, lock = self._coin(transcript.coin_id)
        with lock:
            if db.s < db.T:
                # Write-ahead: the counter increment must survive a crash
                # that happens before the response is sent.
                self.journal.append({"event": "check", "coin_id": db.coin_id, "s": db.s + 1})
            return bank_check(db, transcript, params, errors)

    def _handle_measure(self, request: dict) -> dict:
        db, _ = self._coin(request["coin_id"])
        *_, outcomes, _ = self._measure(db, request, request["eta"])
        return {"type": "measure_ok", "request_id": request.get("request_id"),
                "outcomes": encode_outcomes(*outcomes)}

    def _handle_verify(self, request: dict) -> dict:
        transcript = VerificationTranscript.from_dict(request["transcript"])
        result = self._check(transcript, _verdict_parameters(request["params"]))
        return {"type": "verify_ok", "request_id": request.get("request_id"), **_check_body(result)}

    def _handle_round(self, request: dict) -> dict:
        """A measure and the verify of the transcript built from it, unless
        the holder's abort rule fires.  The check grades the bank's own
        measurement from its error flags, deriving nothing again."""
        params = _verdict_parameters(request["params"])
        db, _ = self._coin(request["coin_id"])
        view, positions, alphas, outcomes, errors = self._measure(db, request, params.eta)
        outcome = _finish_round(view, positions, alphas, outcomes, params,
                                lambda t: self._check(t, params, errors))
        return {"type": "round_ok", "request_id": request.get("request_id"),
                "outcomes": encode_outcomes(*outcomes),
                "check": None if outcome.check is None else _check_body(outcome.check)}


def _verdict_parameters(p: dict) -> VerdictParameters:
    return VerdictParameters(
        c=wire_float(p["c"], "c"), delta=wire_float(p["delta"], "delta"),
        eta=wire_float(p.get("eta", 1.0), "eta"), epsilon=wire_float(p.get("epsilon", 0.0), "epsilon"),
    )


def _check_body(result: CheckResult) -> dict:
    """A verdict in its wire form: the body of a verify_ok, a round_ok's check."""
    body = result.to_dict()
    if result.code is not None:
        body["code"] = result.code
    return body


def _check_result(body: dict) -> CheckResult:
    return CheckResult(
        valid=bool(body["valid"]), s=int(body["s"]), T=int(body["T"]),
        correct_count=int(body["correct_count"]), l_prime=int(body["l_prime"]),
        threshold=float(body["threshold"]), code=body.get("code"),
    )


def _reply_bound(request_id, n: int, k: int) -> int:
    """The most bytes a measure_ok or round_ok frame of k outcomes on an
    n-node coin can take: each outcome is null or {"b": 0, "i": i, "j": j}
    with i, j <= n, and the check and the keys take under 512 bytes beside
    the request_id."""
    per_outcome = len('{"b": 0, "i": , "j": }, ') + 2 * len(str(n))
    return 512 + len(json.dumps(request_id)) + k * per_outcome


def _error(request_id, code: str, message: str) -> dict:
    return {"type": "error", "request_id": request_id, "code": code, "message": message}


def _hang_up(conn: socket.socket, message: str) -> None:
    """The last reply on a connection the bank closes: a bad_request with
    no request_id, sent if the socket still takes it."""
    try:
        send_message(conn, _error(None, "bad_request", message))
    except OSError:
        pass


@dataclass
class BankClient:
    """Client half of the wire protocol; one socket, sequential requests."""

    host: str
    port: int

    def __post_init__(self):
        self._sock = socket.create_connection((self.host, check_port(self.port)))
        self._next_id = 0

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "BankClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, request: dict) -> dict:
        self._next_id += 1
        request["request_id"] = f"r{self._next_id}"
        send_message(self._sock, request)
        response = recv_message(self._sock)
        if response is None:
            raise ServiceError("service closed the connection")
        if response.get("request_id") != request["request_id"]:
            raise ServiceError("response does not match the request")
        if response.get("type") == "error":
            raise ErrorReply(f"{response.get('code')}: {response.get('message')}")
        return response

    def mint(self, n: int, q: int, l: int, seed: int | None = None) -> Coin:
        resp = self._call({"type": "mint", "n": n, "q": q, "l": l, "seed": seed})
        return Coin.fresh(resp["coin_id"], resp["n"], resp["q"], resp["l"], resp["T"])

    def measure(
        self, coin_id: str, positions: np.ndarray, alphas: np.ndarray,
        beta: float, eta: float, seed: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The outcomes (pair_i, pair_j, answer) of measuring the positions."""
        resp = self._call({
            "type": "measure", "coin_id": coin_id,
            "positions": positions.tolist(),
            "alphas": alphas.tolist(),
            "beta": beta, "eta": eta, "seed": seed,
        })
        return decode_outcomes(resp["outcomes"])

    def verify(self, transcript: VerificationTranscript, params: VerdictParameters) -> CheckResult:
        resp = self._call({
            "type": "verify",
            "transcript": transcript.to_dict(),
            "params": _wire_params(params),
        })
        return _check_result(resp)

    def round(
        self, coin_id: str, positions: np.ndarray, alphas: np.ndarray,
        beta: float, params: VerdictParameters, seed: int,
    ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], CheckResult | None]:
        """Measure the positions at params.eta and have the bank check the
        transcript: the outcomes (pair_i, pair_j, answer) and the bank's
        verdict, None when the bank's abort rule fired."""
        resp = self._call({
            "type": "round", "coin_id": coin_id,
            "positions": positions.tolist(),
            "alphas": alphas.tolist(),
            "beta": beta, "seed": seed, "params": _wire_params(params),
        })
        check = resp["check"]
        return decode_outcomes(resp["outcomes"]), None if check is None else _check_result(check)


def _wire_params(params: VerdictParameters) -> dict:
    return {"c": params.c, "delta": params.delta, "eta": params.eta, "epsilon": params.epsilon}


def client_verify(
    address: tuple[str, int],
    coin: Coin,
    params: VerdictParameters,
    channel: HonestChannel,
    rng: np.random.Generator,
) -> VerifyOutcome:
    """Remote twin of holder_verify, bit-identical under the same seeds.

    Draws the sample, bases and measurement seed exactly as the in-process
    path does, and sends them in one `round` request: the service measures
    and, unless the round aborts, checks.  The holder ends the round with
    the same `_finish_round` and raises ServiceError if the bank's abort
    decision differs from its own.  Only honest coins are supported:
    forged positions would need the bank-side view to measure.
    """
    if not coin.all_genuine():
        raise ValueError("client_verify handles honest coins only")
    sample, alphas, measure_seed = _plan_round(coin, rng)
    with BankClient(*address) as client:
        outcomes, check = client.round(coin.coin_id, sample, alphas, channel.beta, params, measure_seed)

    def bank_verdict(transcript: VerificationTranscript) -> CheckResult:
        if check is None:
            raise ServiceError("the bank aborted a round the holder submits")
        return check

    outcome = _finish_round(coin, sample, alphas, outcomes, params, bank_verdict)
    if outcome.check is not check:
        raise ServiceError("the bank checked a round the holder aborts")
    return outcome
