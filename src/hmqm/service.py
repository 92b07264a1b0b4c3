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
not fit the limit is refused before anything is measured.

A `mint` carries the coin's shape (n, q, l), an optional seed and the three
inputs of the standard acceptance policy: channel noise beta, detector
efficiency eta and loss budget epsilon, by default 0, 1 and 0.  The bank
derives c and delta from them once with `VerdictParameters.from_noise`,
journals the three inputs in the mint record and grades every `round` and
`verify` of the coin under that policy: no request sets c or delta.  A mint
whose inputs admit no policy (beta at or above the adversary error floor,
n = 2, a NaN) is a bad_request.  `mint_ok` carries the coin's id and shape;
the holder keeps the coin (its layout, and its sampler: a key and two
integers) client-side, draws each round's sample from it, and derives the
same policy from the same three inputs for its own abort rule.  A coin's id
and key depend on the mint seed only, so a mint that would recreate a coin
the bank holds is a bad_request.

Because secrets stay in the service, a `round` carries the holder's sampled
positions, bases, simulated channel noise beta (in [0, 1/2]) and a
measurement seed, and is one exchange per verification round: the service
measures at the coin's eta with the same exact sampling engine used
in-process, which makes remote runs bit-identical to local ones under the
same seeds, applies protocol's abort rule (`_aborts`) and replies
`round_ok` with the outcomes and, unless the abort rule fired, the
verify_ok body as `check`.  A `verify` carries a whole transcript, for a
holder who measures physical states.  A `measure` carries a round's fields
and replies with the outcomes alone: it stands in for the holder's device,
and it is an unlimited oracle, since measuring one position in all n - 1
matchings reveals its secret up to a global flip.  Every measurement of a
coin runs at the coin's own eta, fixed at mint (a request's `eta` field is
not read), so a `round` on a coin with checks left is exactly a `measure`
followed, unless the abort rule fires, by a `verify` of the transcript
built from it: the same outcomes, the same check, the same charge and the
same journal.  A `round` on an exhausted coin (s = T) measures nothing:
once its fields are validated the bank reads s under the coin's lock and
replies `round_ok` with no outcomes and the `coin_exhausted` check, and
journals nothing.  The lock is held from that read to the charge, so no
round's outcomes go out uncharged because another round exhausted the
coin meanwhile.  The abort rule judges only a sample of l positions, so a
round of any other size is graded `wrong_sample_size` and charged.  The check grades the bank's own
measurement: its nodes, pairs and bits are the bank's, and positions and
bases were range-checked before measuring, so only the holder's sample is
judged (its size, then duplicates), and a present outcome's bit is its
parity XOR its error flag, so l' minus the errors are correct.  The bank
derives where bits are read: the measurement and the check of a round
derive nothing, and its reply's outcomes derive each present position's
AES blocks once (`claimed_bits`), as a measure's do; a verify derives
them once, in the check.  `client_verify` is the in-process round with
one `round` request in place of the measurement and the check: the
planning, the outcome codec, the abort rule and the verdict are protocol's
own, and the no-outcome `coin_exhausted` reply is an Invalid verdict.  Any
other reply the client cannot read (a check or coin field missing or of
the wrong type, malformed outcomes, or a count of outcomes other than the
sample's) is a ServiceError.  A request that races stop() and finds the
journal closed gets an `unavailable` error, with no coin added and no
check charged.

State is durable: every mint and every check-counter increment is appended
to a newline-delimited JSON journal and fsynced before the response is
sent.  A mint record carries the coin's parameters, its secret key in hex,
its policy inputs beta, eta and epsilon, and `"format": 4` (JOURNAL_FORMAT:
secrets are AES-128 of the position and a block counter under the key, and
the record holds the policy), a check record the new counter value.  On
startup the journal is replayed.  A final line without its newline can only
be an append cut short by a crash, before its fsync and before any reply,
so replay truncates the file to its last newline and logs that it did.  Any
other malformed line aborts startup with its byte offset.  That includes a
mint record without a key or a policy input, a coin shape `bank_mint`
would refuse, policy inputs `from_noise` would refuse, a second mint record
of one coin, a coin_id that is not a string, a check counter outside
[1, T], and a mint record of any other format: journals written with
SHAKE-256 secrets (format 1, which had no format field), keyed BLAKE2b
secrets (format 2) or AES-128 secrets and no policy (format 3) are refused,
not migrated.

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
    InfeasiblePlanError,
    MeasuredTranscript,
    UnknownCoinError,
    VerdictParameters,
    VerificationTranscript,
    VerifyOutcome,
    bank_check,
    bank_mint,
    coin_budget,
    decode_outcomes,
    measure_positions,
    wire_float,
    wire_int,
    wire_ints,
    _aborts,
    _plan_round,
    _refusal,
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
# Mint records: the key-to-secret map AES-128_key(i || w), w counting
# 128-bit blocks, and the policy inputs.  Format 1 was SHAKE-256(key || i),
# format 2 keyed BLAKE2b, format 3 AES-128 without the policy inputs.
JOURNAL_FORMAT = 4
# A mint's policy inputs, with the defaults of a lossless, noiseless channel.
POLICY_INPUTS = {"beta": 0.0, "eta": 1.0, "epsilon": 0.0}

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
    """count bytes, or None if the peer closed before sending any of them;
    a close after some of them raises ServiceError."""
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(count - got)
        if not chunk:
            if got:
                raise ServiceError("connection closed mid-frame")
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
            except (KeyError, TypeError, ValueError, OverflowError, InfeasiblePlanError) as exc:
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
                f"{JOURNAL_FORMAT} (AES-128 secrets and policy inputs); format 1 (SHAKE-256 "
                "secrets), format 2 (keyed BLAKE2b secrets) and format 3 (no policy inputs) "
                "are not supported"
            )
        key = bytes.fromhex(record["key"])
        if len(key) != KEY_BYTES:
            raise ValueError(f"key of {len(key)} bytes")
        n, q, l, T, s = (record[name] for name in ("n", "q", "l", "T", "s"))
        if not all(type(v) is int for v in (n, q, l, T, s)):
            raise ValueError("n, q, l, T and s must be integers")
        if T != coin_budget(n, q, l) or not 0 <= s <= T:
            raise ValueError(f"T={T} and s={s} do not fit a coin with q={q}, l={l}")
        policy = {name: wire_float(record[name], name) for name in POLICY_INPUTS}
        coins[record["coin_id"]] = BankDatabase(
            coin_id=record["coin_id"], n=n, q=q, l=l, T=T, key=key, s=s,
            params=VerdictParameters.from_noise(n, **policy),
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
        except (KeyError, TypeError, ValueError, OverflowError, InfeasiblePlanError) as exc:
            return _error(request_id, "bad_request", str(exc))

    def _handle_mint(self, request: dict) -> dict:
        n, q, l = (wire_int(request[name], name) for name in ("n", "q", "l"))
        policy = {name: wire_float(request.get(name, value), name) for name, value in POLICY_INPUTS.items()}
        seed = request.get("seed")
        rng = np.random.default_rng(None if seed is None else wire_int(seed, "seed"))
        _, db = bank_mint(n, q, l, rng)
        db.params = VerdictParameters.from_noise(n, **policy)
        coin = {"coin_id": db.coin_id, "n": n, "q": q, "l": l, "T": db.T}
        with self._coins_lock:
            if db.coin_id in self.coins:
                # Id and key depend on the seed only: minting it again
                # would bring the coin back with a fresh spend counter.
                raise ValueError(f"coin {db.coin_id} already exists; a seed mints one coin")
            self.journal.append({"event": "mint", **coin, "s": 0, "key": db.key.hex(),
                                 "format": JOURNAL_FORMAT, **policy})
            self.coins[db.coin_id] = db
            self._coin_locks[db.coin_id] = threading.Lock()
        return {"type": "mint_ok", "request_id": request.get("request_id"), **coin}

    def _coin(self, coin_id: str) -> tuple[BankDatabase, threading.Lock]:
        with self._coins_lock:
            if coin_id not in self.coins:
                raise UnknownCoinError(f"no coin {coin_id!r}")
            return self.coins[coin_id], self._coin_locks[coin_id]

    def _charge(self, db: BankDatabase, transcript: VerificationTranscript,
                errors: np.ndarray | None = None) -> CheckResult:
        """Grade a transcript under its coin's policy, charging one check;
        errors are those of the bank's own measurement of it, if it made
        one.  The caller holds the coin's lock."""
        if db.s < db.T:
            # Write-ahead: the counter increment must survive a crash
            # that happens before the response is sent.
            self.journal.append({"event": "check", "coin_id": db.coin_id, "s": db.s + 1})
        return bank_check(db, transcript, db.params, errors)

    def _handle_measure(self, request: dict) -> dict:
        db, _ = self._coin(request["coin_id"])
        transcript = _measure(db, *_measurement_fields(db, request))
        return {"type": "measure_ok", "request_id": request.get("request_id"),
                "outcomes": transcript.outcomes()}

    def _handle_verify(self, request: dict) -> dict:
        transcript = VerificationTranscript.from_dict(request["transcript"])
        db, lock = self._coin(transcript.coin_id)
        with lock:
            result = self._charge(db, transcript)
        return {"type": "verify_ok", "request_id": request.get("request_id"), **result.to_dict()}

    def _handle_round(self, request: dict) -> dict:
        """A measure and the verify of the transcript built from it, unless
        the coin's abort rule fires, or nothing on an exhausted coin.  The
        check grades the bank's own measurement from its error flags, so
        the reply's bits are the only ones derived.  The coin's lock is
        held from reading s to charging it, so no round measures a coin
        that another one exhausts."""
        db, lock = self._coin(request["coin_id"])
        fields = _measurement_fields(db, request)
        reply = {"type": "round_ok", "request_id": request.get("request_id")}
        with lock:
            if db.s >= db.T:
                return {**reply, "outcomes": [], "check": _refusal(db, "coin_exhausted", 0).to_dict()}
            transcript = _measure(db, *fields)
            check = None if _aborts(transcript, db.params) else self._charge(db, transcript, transcript.errors)
        return {**reply, "outcomes": transcript.outcomes(), "check": None if check is None else check.to_dict()}


def _measurement_fields(db: BankDatabase, request: dict) -> tuple[np.ndarray, np.ndarray, float, int]:
    """The validated fields of a measure or round on the coin: positions,
    bases, channel noise and measurement seed.  A sample whose reply might
    not fit a frame is refused before anything is measured."""
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
    return positions, alphas, beta, wire_int(request["seed"], "seed")


def _measure(db: BankDatabase, positions: np.ndarray, alphas: np.ndarray, beta: float,
             seed: int) -> MeasuredTranscript:
    """The bank's measurement of validated fields at the coin's eta, as a
    transcript that derives its bits only when they are read."""
    view = Coin.fresh(db.coin_id, db.n, db.q, db.l, db.T)
    *measured, _ = measure_positions(view, positions, alphas, beta, db.params.eta, np.random.default_rng(seed))
    return MeasuredTranscript(db, positions, alphas, *measured)


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

    def _call(self, request: dict, read):
        """Send the request and read its reply's fields with read(reply).
        A reply that does not parse is a ServiceError, an error reply an
        ErrorReply."""
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
        try:
            return read(response)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ServiceError(f"malformed {response.get('type')} reply: {exc!r}") from exc

    def mint(self, n: int, q: int, l: int, seed: int | None = None,
             beta: float = 0.0, eta: float = 1.0, epsilon: float = 0.0) -> Coin:
        """A fresh coin, which the bank grades under
        `VerdictParameters.from_noise(n, beta, eta, epsilon)`."""
        return self._call({"type": "mint", "n": n, "q": q, "l": l, "seed": seed,
                           "beta": beta, "eta": eta, "epsilon": epsilon},
                          lambda resp: Coin.fresh(resp["coin_id"], *(wire_int(resp[k], k) for k in ("n", "q", "l", "T"))))

    def measure(
        self, coin_id: str, positions: np.ndarray, alphas: np.ndarray,
        beta: float, seed: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The outcomes (pair_i, pair_j, answer) of measuring the positions
        at the coin's eta over a channel of noise beta."""
        return self._call({"type": "measure", **_round_fields(coin_id, positions, alphas, beta, seed)},
                          lambda resp: _outcomes(resp, positions))

    def verify(self, transcript: VerificationTranscript) -> CheckResult:
        """The bank's verdict on the transcript, under the coin's policy."""
        return self._call({"type": "verify", "transcript": transcript.to_dict()}, CheckResult.from_dict)

    def round(
        self, coin_id: str, positions: np.ndarray, alphas: np.ndarray,
        beta: float, seed: int,
    ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray] | None, CheckResult | None]:
        """Measure the positions at the coin's eta over a channel of noise
        beta, and have the bank check the transcript under the coin's
        policy: the outcomes (pair_i, pair_j, answer), None when the coin
        was exhausted and the bank measured nothing, and the bank's
        verdict, None when the coin's abort rule fired."""
        return self._call({"type": "round", **_round_fields(coin_id, positions, alphas, beta, seed)},
                          lambda resp: _round_reply(resp, positions))


def _round_reply(reply: dict, positions: np.ndarray) -> tuple:
    """A round_ok's outcomes and check.  The outcomes are None only in the
    bank's answer on an exhausted coin: no outcomes and an Invalid check
    with code coin_exhausted.  Any other count of outcomes but one per
    position raises ValueError."""
    check = None if reply["check"] is None else CheckResult.from_dict(reply["check"])
    if reply["outcomes"] == [] and check is not None and not check.valid and check.code == "coin_exhausted":
        return None, check
    return _outcomes(reply, positions), check


def _outcomes(reply: dict, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decoded outcomes of a reply, one per position asked for."""
    outcomes = decode_outcomes(reply["outcomes"])
    if len(outcomes[0]) != len(positions):
        raise ValueError(f"{len(outcomes[0])} outcomes for {len(positions)} positions")
    return outcomes


def _round_fields(coin_id: str, positions: np.ndarray, alphas: np.ndarray, beta: float, seed: int) -> dict:
    """The fields a `measure` and a `round` request share."""
    return {"coin_id": coin_id, "positions": positions.tolist(), "alphas": alphas.tolist(),
            "beta": beta, "seed": seed}


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
    at the coin's eta and, unless the round aborts, checks under the coin's
    policy.  params is the holder's copy of that policy, `from_noise` of the
    mint's inputs, for its own abort rule; the verdict is the bank's.  The
    holder applies the same `_aborts` and raises ServiceError if the bank's
    abort decision differs from its own.  On an exhausted coin the bank
    measures nothing and answers coin_exhausted: the round is Invalid, and
    its transcript has every outcome lost.  Only honest coins are
    supported: forged positions would need the bank-side view to measure.
    """
    if not coin.all_genuine():
        raise ValueError("client_verify handles honest coins only")
    sample, alphas, measure_seed = _plan_round(coin, rng)
    with BankClient(*address) as client:
        outcomes, check = client.round(coin.coin_id, sample, alphas, channel.beta, measure_seed)
    unmeasured = outcomes is None
    transcript = VerificationTranscript(coin.coin_id, coin.l, sample, alphas,
                                        *(decode_outcomes([None] * len(sample)) if unmeasured else outcomes))
    if not unmeasured and _aborts(transcript, params) != (check is None):
        raise ServiceError("the bank checked a round the holder aborts" if check is not None
                           else "the bank aborted a round the holder submits")
    return VerifyOutcome(transcript, check, None)
