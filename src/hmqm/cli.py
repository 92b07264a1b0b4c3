"""Command-line interface.

Subcommands: bounds, simulate, forge, plan, coherent, serve, verify.  Only
the randomized ones take --seed: simulate and forge default to seed 0 and
are byte-deterministic under it, and verify mints an unseeded coin unless
--seed is given.  Every reporting command takes --format {csv,json} and
--out.  Exit codes: 0 on success, 2 for
invalid parameters or a request the bank refused, 3 for an infeasible plan,
4 for I/O or network failures.

Config files (simulate, forge) are flat key=value lines; '#' starts a
comment.  Each value is read with its flag's type, so a value the flag
would refuse is refused (exit 2).  Command-line flags override config values.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import adversary, bounds, coherent, protocol, service

# The inputs of an experiment, key -> type: each is a flag and a config key.
SIMULATE_KEYS = {"n": int, "q": int, "l": int, "beta": float, "eta": float,
                 "epsilon": float, "trials": int, "seed": int}
FORGE_KEYS = {**SIMULATE_KEYS, "fraction": float, "strategy": str}
# What a flag adds to its key's type.
FLAG_OPTIONS = {"seed": {"help": "64-bit RNG seed"},
                "strategy": {"choices": tuple(adversary.BUILTIN_STRATEGIES)}}


def parse_config(path: str) -> dict[str, str]:
    """Flat key=value file with # comments; values stay strings."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
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
    """'4:14' inclusive range of even n, or '4,6,8'.  Every n must pass
    bounds.check_bound_n; a range is checked at its ends before it is
    built, so one that runs past MAX_BOUND_N is refused at once."""
    if ":" in spec:
        lo, _, hi = spec.partition(":")
        values = range(int(lo) + int(lo) % 2, int(hi) + 1, 2)
        checked = [*values[:1], *values[-1:]]
    else:
        values = checked = [int(v) for v in spec.split(",")]
    for n in checked:
        bounds.check_bound_n(n)
    return list(values)


def _report(data: dict | list[dict], fmt: str, out: str | None, columns: list[str] | None = None) -> None:
    """Emit one report: JSON of data as given, or CSV with one line per row
    (a dict is a single row; missing or None cells are empty).  The CSV's
    columns are `columns`, else the first row's keys."""
    if fmt == "json":
        text = json.dumps(data, sort_keys=True, indent=2)
    else:
        rows = [data] if isinstance(data, dict) else data
        columns = columns or list(rows[0])
        lines = [",".join(columns)]
        lines += [",".join(_csv_cell(row.get(col)) for col in columns) for row in rows]
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
    columns = [field.name for field in dataclasses.fields(bounds.CloneBound)]
    _report(rows, args.format, args.out, columns)
    return 0


def _gather(args, keys: dict, defaults: dict) -> dict:
    """The defaults, overridden by the config file's values, each read with
    its key's type, then by the flags given."""
    values = dict(defaults)
    if args.config:
        loaded = parse_config(args.config)
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, text in loaded.items():
            try:
                values[key] = keys[key](text)
            except ValueError:
                raise ValueError(f"config key {key!r} needs {keys[key].__name__}, got {text!r}") from None
    for key in keys:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return values


SIMULATE_DEFAULTS = {"n": 8, "q": None, "l": 2000, "beta": 0.0, "eta": 1.0,
                     "epsilon": 0.0, "trials": 100, "seed": 0}


def cmd_simulate(args) -> int:
    cfg = _gather(args, SIMULATE_KEYS, SIMULATE_DEFAULTS)
    if cfg["q"] is None:
        cfg["q"] = bounds.COIN_BUDGET_DIVISOR * cfg["l"]
    rng = np.random.default_rng(cfg.pop("seed"))
    _report(protocol.run_honest_experiment(**cfg, rng=rng).to_dict(), args.format, args.out)
    return 0


def cmd_forge(args) -> int:
    cfg = _gather(args, FORGE_KEYS, {**SIMULATE_DEFAULTS, "n": 4, "trials": 50,
                                     "beta": 0.1, "strategy": "symmetric_clone", "fraction": 0.0})
    if cfg["q"] is None:
        cfg["q"] = 2 * bounds.COIN_BUDGET_DIVISOR * cfg["l"]  # T = 2: both halves of a double-spend get judged
    strategy = adversary.builtin_strategy(cfg["strategy"], beta=cfg["beta"], fraction=cfg["fraction"])
    params = protocol.VerdictParameters.from_noise(cfg["n"], cfg["beta"], cfg["eta"], cfg["epsilon"])
    rng = np.random.default_rng(cfg["seed"])
    outcome = adversary.run_forging_experiment(
        n=cfg["n"], q=cfg["q"], l=cfg["l"], strategy=strategy, trials=cfg["trials"],
        params=params, rng=rng,
    )
    _report(outcome.to_dict(), args.format, args.out, outcome.CSV_HEADER.split(","))
    return 0


def cmd_plan(args) -> int:
    plan = protocol.plan_parameters(args.n, args.beta, args.security, args.eta, args.epsilon)
    _report(dataclasses.asdict(plan), args.format, args.out)
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
    _report(rows, args.format, args.out, COHERENT_HEADER)
    return 0


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be HOST:PORT, got {text!r}")
    return host, service.check_port(int(port))


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
        coin = client.mint(args.n, args.q, args.l, args.seed, args.beta, args.eta, args.epsilon)
    outcome = service.client_verify(address, coin, params, channel, rng)
    report = {"verdict": outcome.verdict.value}
    if outcome.check is not None:
        report.update(outcome.check.to_dict())
    _report(report, args.format, args.out, VERIFY_HEADER)
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

    for name, keys, func, summary in (
        ("simulate", SIMULATE_KEYS, cmd_simulate, "honest coin lifecycles, Monte Carlo"),
        ("forge", FORGE_KEYS, cmd_forge, "double-spend experiment for a named strategy"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", default=None, help="key=value config file")
        for key, kind in keys.items():
            p.add_argument(f"--{key}", type=kind, **FLAG_OPTIONS.get(key, {}))
        common(p)
        p.set_defaults(func=func)

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
