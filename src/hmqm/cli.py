"""Command-line interface.

Subcommands: bounds, simulate, forge, plan, coherent, serve, verify.  Only
the randomized ones take --seed: simulate and forge default to seed 0 and
are byte-deterministic under it, and verify mints an unseeded coin unless
--seed is given.  Every reporting command takes --format {csv,json} and
--out.  Exit codes: 0 on success, 2 for
invalid parameters or a request the bank refused, 3 for an infeasible plan,
4 for I/O or network failures.

Config files (simulate, forge) are flat key=value lines; '#' starts a
comment.  Command-line flags override config values.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import adversary, bounds, coherent, protocol, service

SIMULATE_KEYS = {"n", "q", "l", "beta", "eta", "epsilon", "trials", "seed"}
FORGE_KEYS = SIMULATE_KEYS | {"strategy", "fraction"}


def parse_config(path: str) -> dict:
    """Flat key=value file with # comments; values become int, float or str."""
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            for cast in (int, float):
                try:
                    value = cast(value)
                    break
                except ValueError:
                    continue
            values[key] = value
    return values


def _parse_sweep(spec: str) -> np.ndarray:
    """'start:stop:count' linspace or a comma-separated list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"sweep must be start:stop:count, got {spec!r}")
        return np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
    return np.array([float(v) for v in spec.split(",")])


def _parse_n_list(spec: str) -> list[int]:
    """'4:14' inclusive range of even n, or '4,6,8'."""
    if ":" in spec:
        lo, _, hi = spec.partition(":")
        values = [n for n in range(int(lo), int(hi) + 1) if n % 2 == 0]
    else:
        values = [int(v) for v in spec.split(",")]
    for n in values:
        if n % 2 != 0 or n < 4:
            raise ValueError(f"n must be even and >= 4, got {n}")
    return values


def _report(data: dict | list[dict], header: list[str], fmt: str, out: str | None) -> None:
    """Emit one report: JSON of data as given, or CSV of the header's columns
    with one line per row (a dict is a single row; missing or None cells
    are empty)."""
    if fmt == "json":
        text = json.dumps(data, sort_keys=True, indent=2)
    else:
        rows = [data] if isinstance(data, dict) else data
        lines = [",".join(header)]
        lines += [",".join(_csv_cell(row.get(col)) for col in header) for row in rows]
        text = "\n".join(lines)
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_bounds(args) -> int:
    rows = [dataclasses.asdict(bounds.CloneBound.compute(n)) for n in _parse_n_list(args.n)]
    _report(rows, bounds.CloneBound.CSV_HEADER.split(","), args.format, args.out)
    return 0


def _gather(args, keys: set, defaults: dict) -> dict:
    values = dict(defaults)
    if args.config:
        loaded = parse_config(args.config)
        unknown = set(loaded) - keys
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


SIMULATE_DEFAULTS = {"n": 8, "q": None, "l": 2000, "beta": 0.0, "eta": 1.0,
                     "epsilon": 0.0, "trials": 100, "seed": 0}

SIMULATE_HEADER = ["n", "q", "l", "beta", "eta", "epsilon", "trials", "valid", "invalid",
                   "aborted", "valid_rate", "invalid_rate", "abort_rate", "reject_bound",
                   "abort_bound"]


def cmd_simulate(args) -> int:
    cfg = _gather(args, SIMULATE_KEYS, SIMULATE_DEFAULTS)
    if cfg["q"] is None:
        cfg["q"] = 1000 * cfg["l"]
    rng = np.random.default_rng(int(cfg["seed"]))
    report = protocol.run_honest_experiment(
        n=int(cfg["n"]), q=int(cfg["q"]), l=int(cfg["l"]), beta=float(cfg["beta"]),
        trials=int(cfg["trials"]), rng=rng, eta=float(cfg["eta"]), epsilon=float(cfg["epsilon"]),
    ).to_dict()
    _report(report, SIMULATE_HEADER, args.format, args.out)
    return 0


def cmd_forge(args) -> int:
    cfg = _gather(args, FORGE_KEYS, {**SIMULATE_DEFAULTS, "n": 4, "trials": 50,
                                     "beta": 0.1, "strategy": "symmetric_clone", "fraction": 0.0})
    if cfg["q"] is None:
        cfg["q"] = 2000 * cfg["l"]  # T = 2: both halves of a double-spend get judged
    strategy = adversary.builtin_strategy(str(cfg["strategy"]), beta=float(cfg["beta"]),
                                          fraction=float(cfg["fraction"]))
    params = protocol.VerdictParameters.from_noise(
        int(cfg["n"]), float(cfg["beta"]), float(cfg["eta"]), float(cfg["epsilon"]))
    rng = np.random.default_rng(int(cfg["seed"]))
    outcome = adversary.run_forging_experiment(
        n=int(cfg["n"]), q=int(cfg["q"]), l=int(cfg["l"]), strategy=strategy,
        trials=int(cfg["trials"]), params=params, rng=rng,
    )
    _report(outcome.to_dict(), outcome.CSV_HEADER.split(","), args.format, args.out)
    return 0


PLAN_HEADER = ["n", "beta", "eta", "epsilon", "c", "delta", "l", "q_min", "T",
               "error_floor", "target", "achieved"]


def cmd_plan(args) -> int:
    plan = protocol.plan_parameters(args.n, args.beta, args.security, args.eta, args.epsilon)
    _report(plan.to_dict(), PLAN_HEADER, args.format, args.out)
    return 0


COHERENT_HEADER = ["alpha_sq", "p0", "p1", "p2plus", "effective_eta", "effective_adversary_error"]


def cmd_coherent(args) -> int:
    rows = []
    for alpha_sq in _parse_sweep(args.alpha_sq):
        point = coherent.coherent_pipeline(float(alpha_sq), args.n, args.eta, args.epsilon)
        rows.append({
            "alpha_sq": point.alpha_sq, "p0": point.p0, "p1": point.p1,
            "p2plus": point.p2plus, "effective_eta": point.effective_eta,
            "effective_adversary_error": point.effective_error,
        })
    _report(rows, COHERENT_HEADER, args.format, args.out)
    return 0


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be HOST:PORT, got {text!r}")
    return host, int(port)


def cmd_serve(args) -> int:
    host, port = _parse_address(args.listen)
    server = service.BankService(host=host, port=port, journal_path=args.data)
    actual = server.address
    print(f"serving on {actual[0]}:{actual[1]}, journal {server.journal.path}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


VERIFY_HEADER = ["verdict", "valid", "s", "T", "correct_count", "l_prime", "threshold"]


def cmd_verify(args) -> int:
    address = _parse_address(args.connect)
    rng = np.random.default_rng(args.seed)
    params = protocol.VerdictParameters.from_noise(args.n, args.beta, args.eta, args.epsilon)
    channel = protocol.HonestChannel(args.beta)
    with service.BankClient(*address) as client:
        coin = client.mint(args.n, args.q, args.l, seed=args.seed)
    outcome = service.client_verify(address, coin, params, channel, rng)
    report = {"verdict": outcome.verdict.value}
    if outcome.check is not None:
        report.update(outcome.check.to_dict())
    _report(report, VERIFY_HEADER, args.format, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hmqm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="json"):
        p.add_argument("--format", choices=("csv", "json"), default=fmt_default)
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    p = sub.add_parser("bounds", help="cloning-bound table over a range of n")
    p.add_argument("--n", default="4:14", help="range 'lo:hi' or list '4,6,8' of even n")
    common(p, fmt_default="csv")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="honest coin lifecycles, Monte Carlo")
    p.add_argument("--config", default=None, help="key=value config file")
    for key in ("n", "q", "l", "trials"):
        p.add_argument(f"--{key}", type=int, default=None)
    for key in ("beta", "eta", "epsilon"):
        p.add_argument(f"--{key}", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("forge", help="double-spend experiment for a named strategy")
    p.add_argument("--config", default=None)
    p.add_argument("--strategy", default=None, choices=tuple(adversary.BUILTIN_STRATEGIES))
    for key in ("n", "q", "l", "trials"):
        p.add_argument(f"--{key}", type=int, default=None)
    for key in ("beta", "eta", "epsilon", "fraction"):
        p.add_argument(f"--{key}", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    common(p)
    p.set_defaults(func=cmd_forge)

    p = sub.add_parser("plan", help="smallest sample size meeting a security target")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--security", type=float, required=True, help="target failure probability")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("coherent", help="weak coherent-pulse trade-off table")
    p.add_argument("--alpha-sq", dest="alpha_sq", default="0.05:1.0:20",
                   help="sweep 'start:stop:count' or list '0.1,0.25'")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--eta", type=float, default=0.6, help="detector efficiency")
    p.add_argument("--epsilon", type=float, default=0.001)
    common(p, fmt_default="csv")
    p.set_defaults(func=cmd_coherent)

    p = sub.add_parser("serve", help="run the bank service")
    p.add_argument("--listen", default="127.0.0.1:7700", help="HOST:PORT to bind")
    p.add_argument("--data", default=None,
                   help=f"journal path (default: ${service.DATA_ENV_VAR} or {service.DEFAULT_JOURNAL})")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("verify", help="mint and verify one coin against a running service")
    p.add_argument("--connect", required=True, help="HOST:PORT of the service")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--q", type=int, default=10_000)
    p.add_argument("--l", type=int, default=10)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except protocol.InfeasiblePlanError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ValueError, protocol.ProtocolError, service.ErrorReply) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ConnectionError, service.ServiceError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
