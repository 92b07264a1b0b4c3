"""Bank service: mint and check coins over a socket, secrets never leave.

Wire format: every message is a 4-byte big-endian length followed by UTF-8
JSON object with sorted keys.  Requests carry a client-chosen request_id
echoed in the response.  A frame that is not such an object gets a
bad_request error and the connection is closed.  `mint_ok` carries the
coin's id and parameters; the holder keeps the coin (its layout and the
positions it has consumed) client-side.  Because secrets stay in the
service, the holder measures genuine positions by sending the sampled
positions, bases, channel parameters and a measurement seed in one
MeasureRequest, and the service runs the same exact sampling engine used
in-process, which makes remote runs bit-identical to local ones under the
same seeds.

State is durable: every mint and every check-counter increment is appended
to a newline-delimited JSON journal and fsynced before the response is
sent.  A mint record carries the coin's parameters, its secret key in hex
and `"format": 2` (JOURNAL_FORMAT: secrets are keyed BLAKE2b of the
position), a check record the new counter value.  On startup the journal is
replayed; a malformed line aborts startup with its byte offset.  That
includes a mint record without a key, a coin shape `bank_mint` would refuse,
a check counter outside [1, T], and a mint record of any other format:
journals written with SHAKE-256 secrets (format 1, which had no format
field) are refused, not migrated.
"""

import json
import os
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
    Verdict,
    VerdictParameters,
    VerificationTranscript,
    VerifyOutcome,
    bank_check,
    bank_mint,
    coin_budget,
    measure_positions,
    _plan_round,
)

MAX_MESSAGE_BYTES = 64 * 1024 * 1024
DATA_ENV_VAR = "HMQM_DATA"
DEFAULT_JOURNAL = "hmqm-journal.ndjson"
# The key-to-secret map of mint records; format 1 was SHAKE-256(key || i).
JOURNAL_FORMAT = 2


class ServiceError(Exception):
    pass


class JournalCorruptError(ServiceError):
    def __init__(self, path: str, offset: int, reason: str):
        super().__init__(f"journal {path} corrupt at byte {offset}: {reason}")
        self.offset = offset


def send_message(sock: socket.socket, obj: dict) -> None:
    payload = json.dumps(obj, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ServiceError(f"message of {len(payload)} bytes exceeds the limit")
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
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
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            self._fh.close()

    @staticmethod
    def replay(path: str) -> dict[str, BankDatabase]:
        """Rebuild the coin table from the journal; strict about every line."""
        coins: dict[str, BankDatabase] = {}
        if not os.path.exists(path):
            return coins
        offset = 0
        with open(path, "rb") as fh:
            data = fh.read()
        while offset < len(data):
            end = data.find(b"\n", offset)
            if end == -1:
                raise JournalCorruptError(path, offset, "unterminated final line")
            line = data[offset:end]
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise JournalCorruptError(path, offset, str(exc)) from exc
            try:
                _apply_record(coins, record)
            except (KeyError, TypeError, ValueError) as exc:
                raise JournalCorruptError(path, offset, f"bad record: {exc}") from exc
            offset = end + 1
        return coins


def _apply_record(coins: dict[str, BankDatabase], record: dict) -> None:
    event = record["event"]
    if event == "mint":
        if record.get("format") != JOURNAL_FORMAT:
            raise ValueError(
                f"mint record of format {record.get('format')!r}, this bank reads format "
                f"{JOURNAL_FORMAT} (keyed BLAKE2b secrets); format 1 (SHAKE-256 secrets) is not supported"
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
    """Threaded socket server wrapping a durable bank database."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, journal_path: str | None = None):
        if journal_path is None:
            journal_path = os.environ.get(DATA_ENV_VAR, DEFAULT_JOURNAL)
        if os.path.isdir(journal_path):
            journal_path = os.path.join(journal_path, DEFAULT_JOURNAL)
        self.coins = Journal.replay(journal_path)
        self.journal = Journal(journal_path)
        self._coins_lock = threading.Lock()
        self._coin_locks: dict[str, threading.Lock] = {cid: threading.Lock() for cid in self.coins}
        self._sock = socket.create_server((host, port))
        self._stop = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def serve_forever(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                break
            threading.Thread(target=self._serve_connection, args=(conn,), daemon=True).start()

    def start(self) -> threading.Thread:
        t = threading.Thread(target=self.serve_forever, daemon=True)
        t.start()
        return t

    def stop(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        self.journal.close()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    request = recv_message(conn)
                except (ServiceError, ConnectionError):
                    try:
                        send_message(conn, {"type": "error", "code": "bad_request",
                                            "message": "malformed frame", "request_id": None})
                    except OSError:
                        pass
                    return
                if request is None:
                    return
                try:
                    response = self._dispatch(request)
                except OSError:
                    return
                try:
                    send_message(conn, response)
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
            return _error(request_id, "bad_request", f"unknown request type {kind!r}")
        except UnknownCoinError as exc:
            return _error(request_id, "unknown_coin", str(exc))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            return _error(request_id, "bad_request", str(exc))

    def _handle_mint(self, request: dict) -> dict:
        n, q, l = int(request["n"]), int(request["q"]), int(request["l"])
        seed = request.get("seed")
        rng = np.random.default_rng(None if seed is None else int(seed))
        _, db = bank_mint(n, q, l, rng)
        coin = {"coin_id": db.coin_id, "n": n, "q": q, "l": l, "T": db.T}
        with self._coins_lock:
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

    def _handle_measure(self, request: dict) -> dict:
        db, _ = self._coin(request["coin_id"])
        positions = np.asarray(request["positions"], dtype=np.int64)
        alphas = np.asarray(request["alphas"], dtype=np.int64)
        if positions.ndim != 1 or positions.shape != alphas.shape:
            raise ValueError("positions and alphas must be equal-length lists")
        if np.any(positions < 0) or np.any(positions >= db.q):
            raise ValueError("position out of range")
        if np.any(alphas < 1) or np.any(alphas > db.n - 1):
            raise ValueError("alpha out of range")
        beta = float(request["beta"])
        eta = float(request["eta"])
        view = Coin.fresh(db.coin_id, db.n, db.q, db.l, db.T)
        pair_i, pair_j, answer, _ = measure_positions(
            db.key, view, positions, alphas, beta, eta,
            np.random.default_rng(int(request["seed"])),
        )
        outcomes = [
            None if answer[k] < 0 else {"i": int(pair_i[k]), "j": int(pair_j[k]), "b": int(answer[k])}
            for k in range(len(positions))
        ]
        return {"type": "measure_ok", "request_id": request.get("request_id"), "outcomes": outcomes}

    def _handle_verify(self, request: dict) -> dict:
        transcript = VerificationTranscript.from_dict(request["transcript"])
        p = request["params"]
        params = VerdictParameters(
            c=float(p["c"]), delta=float(p["delta"]),
            eta=float(p.get("eta", 1.0)), epsilon=float(p.get("epsilon", 0.0)),
        )
        db, lock = self._coin(transcript.coin_id)
        with lock:
            if db.s < db.T:
                # Write-ahead: the counter increment must survive a crash
                # that happens before the response is sent.
                self.journal.append({"event": "check", "coin_id": db.coin_id, "s": db.s + 1})
            result = bank_check(db, transcript, params)
        response = {"type": "verify_ok", "request_id": request.get("request_id")}
        response.update(result.to_dict())
        if result.code is not None:
            response["code"] = result.code
        return response


def _error(request_id, code: str, message: str) -> dict:
    return {"type": "error", "request_id": request_id, "code": code, "message": message}


@dataclass
class BankClient:
    """Client half of the wire protocol; one socket, sequential requests."""

    host: str
    port: int

    def __post_init__(self):
        self._sock = socket.create_connection((self.host, self.port))
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
            raise ServiceError(f"{response.get('code')}: {response.get('message')}")
        return response

    def mint(self, n: int, q: int, l: int, seed: int | None = None) -> Coin:
        resp = self._call({"type": "mint", "n": n, "q": q, "l": l, "seed": seed})
        return Coin.fresh(resp["coin_id"], resp["n"], resp["q"], resp["l"], resp["T"])

    def measure(
        self, coin_id: str, positions: np.ndarray, alphas: np.ndarray,
        beta: float, eta: float, seed: int,
    ) -> list[dict | None]:
        resp = self._call({
            "type": "measure", "coin_id": coin_id,
            "positions": [int(v) for v in positions],
            "alphas": [int(v) for v in alphas],
            "beta": beta, "eta": eta, "seed": seed,
        })
        return resp["outcomes"]

    def verify(self, transcript: VerificationTranscript, params: VerdictParameters) -> CheckResult:
        resp = self._call({
            "type": "verify",
            "transcript": json.loads(transcript.to_json()),
            "params": {"c": params.c, "delta": params.delta,
                       "eta": params.eta, "epsilon": params.epsilon},
        })
        return CheckResult(
            valid=bool(resp["valid"]), s=int(resp["s"]), T=int(resp["T"]),
            correct_count=int(resp["correct_count"]), l_prime=int(resp["l_prime"]),
            threshold=float(resp["threshold"]), code=resp.get("code"),
        )


def client_verify(
    address: tuple[str, int],
    coin: Coin,
    params: VerdictParameters,
    channel: HonestChannel,
    rng: np.random.Generator,
) -> VerifyOutcome:
    """Remote twin of holder_verify, bit-identical under the same seeds.

    Draws the sample, bases and measurement seed exactly as the in-process
    path does, asks the service for the outcomes, applies the same abort
    rule, and submits the transcript.  Only honest coins are supported:
    forged positions would need the bank-side view to measure.
    """
    if not coin.all_genuine():
        raise ValueError("client_verify handles honest coins only")
    sample, alphas, measure_seed = _plan_round(coin, rng)
    with BankClient(*address) as client:
        outcomes = client.measure(coin.coin_id, sample, alphas, channel.beta, params.eta, measure_seed)
        k = len(sample)
        pair_i = np.zeros(k, dtype=np.int64)
        pair_j = np.zeros(k, dtype=np.int64)
        answer = np.full(k, -1, dtype=np.int8)
        for idx, out in enumerate(outcomes):
            if out is not None:
                pair_i[idx], pair_j[idx], answer[idx] = out["i"], out["j"], out["b"]
        transcript = VerificationTranscript(
            coin_id=coin.coin_id, l=coin.l, positions=sample, alpha=alphas,
            pair_i=pair_i, pair_j=pair_j, answer=answer,
        )
        if transcript.l_prime < params.min_outcomes * coin.l:
            return VerifyOutcome(Verdict.ABORTED, transcript, None, None)
        check = client.verify(transcript, params)
    verdict = Verdict.VALID if check.valid else Verdict.INVALID
    return VerifyOutcome(verdict, transcript, check, None)
