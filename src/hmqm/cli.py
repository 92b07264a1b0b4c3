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

Each subcommand is one entry of COMMANDS: its function, its summary and its
inputs, key -> (type, default[, help]).  A key is its flag with the dashes
as underscores (--alpha-sq is alpha_sq), a default of REQUIRED makes the
flag required, and CHOICES holds the values a flag allows.  build_parser
adds every flag from the table; main reads each input once through
`_gather` (default, then config value, then flag), runs the command, and
emits the report and CSV columns it returns.  A config file may set any
input but --config, --format and --out.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import adversary, bounds, coherent, protocol, service

REQUIRED = object()  # the default of a flag that must be given


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
    """'start:stop:count' linspace or a comma-separated list, refused if it
    holds no point (a count below 1) or more points than memory holds."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"sweep must be start:stop:count, got {spec!r}")
        try:
            values = np.linspace(float(parts[0]), float(parts[1]), max(int(parts[2]), 0))
        except MemoryError:
            raise ValueError(f"sweep {spec!r} holds more points than memory holds") from None
    else:
        values = np.array([float(v) for v in spec.split(",")])
    if not len(values):
        raise ValueError(f"sweep {spec!r} holds no point")
    return values


def _parse_n_list(spec: str) -> list[int]:
    """'4:14' inclusive range of even n, or '4,6,8'.  Every n must pass
    bounds.check_bound_n; a range is checked at its ends before it is
    built, so one that runs past MAX_BOUND_N is refused at once, and one
    that holds no even n is refused."""
    if ":" in spec:
        lo, _, hi = spec.partition(":")
        values = range(int(lo) + int(lo) % 2, int(hi) + 1, 2)
        checked = [*values[:1], *values[-1:]]
    else:
        values = checked = [int(v) for v in spec.split(",")]
    if not values:
        raise ValueError(f"n range {spec!r} holds no even n")
    for n in checked:
        bounds.check_bound_n(n)
    return list(values)


def _report(data: dict | list[dict], columns: list[str] | None, fmt: str, out: str | None) -> None:
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


def cmd_bounds(args) -> tuple[list[dict], None]:
    return [dataclasses.asdict(bounds.CloneBound.compute(n)) for n in _parse_n_list(args.n)], None


def cmd_simulate(args) -> tuple[dict, None]:
    q = bounds.COIN_BUDGET_DIVISOR * args.l if args.q is None else args.q
    record = protocol.run_honest_experiment(
        n=args.n, q=q, l=args.l, beta=args.beta, trials=args.trials,
        rng=np.random.default_rng(args.seed), eta=args.eta, epsilon=args.epsilon,
    )
    return dataclasses.asdict(record), None


def cmd_forge(args) -> tuple[dict, list[str]]:
    # T = 2 by default: both halves of a double-spend get judged.
    q = 2 * bounds.COIN_BUDGET_DIVISOR * args.l if args.q is None else args.q
    strategy = adversary.builtin_strategy(args.strategy, beta=args.beta, fraction=args.fraction)
    params = protocol.VerdictParameters.from_noise(args.n, args.beta, args.eta, args.epsilon)
    outcome = adversary.run_forging_experiment(
        n=args.n, q=q, l=args.l, strategy=strategy, trials=args.trials,
        params=params, rng=np.random.default_rng(args.seed),
    )
    return outcome.to_dict(), outcome.CSV_HEADER.split(",")


def cmd_plan(args) -> tuple[dict, None]:
    plan = protocol.plan_parameters(args.n, args.beta, args.security, args.eta, args.epsilon)
    return dataclasses.asdict(plan), None


def cmd_coherent(args) -> tuple[list[dict], None]:
    rows = []
    for alpha_sq in _parse_sweep(args.alpha_sq):
        point = coherent.coherent_pipeline(float(alpha_sq), args.n, args.eta, args.epsilon)
        rows.append({
            "alpha_sq": point.alpha_sq, "p0": point.p0, "p1": point.p1,
            "p2plus": point.p2plus, "effective_eta": point.effective_eta,
            "effective_adversary_error": point.effective_error,
        })
    return rows, None


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be HOST:PORT, got {text!r}")
    return host, service.check_port(int(port))


def cmd_serve(args) -> None:
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


VERIFY_HEADER = ["verdict", "valid", "s", "T", "correct_count", "l_prime", "threshold"]


def cmd_verify(args) -> tuple[dict, list[str]]:
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
    return report, VERIFY_HEADER


# The inputs of a Monte Carlo experiment; forge overrides some defaults.
EXPERIMENT = {"n": (int, 8), "q": (int, None), "l": (int, 2000), "beta": (float, 0.0), "eta": (float, 1.0),
              "epsilon": (float, 0.0), "trials": (int, 100), "seed": (int, 0, "64-bit RNG seed")}
# The run's own inputs, which no config file sets: where the config is, and
# a reporting command's format (JSON unless CSV_REPORT) and output file.
CONFIG = {"config": (str, None, "key=value config file")}
REPORT = {"format": (str, "json"), "out": (str, None, "write output to this file instead of stdout")}
CSV_REPORT = {**REPORT, "format": (str, "csv")}
COMMANDS = {
    "bounds": (cmd_bounds, "cloning-bound table over a range of n",
               {"n": (str, "4:14", "range 'lo:hi' or list '4,6,8' of even n"), **CSV_REPORT}),
    "simulate": (cmd_simulate, "honest coin lifecycles, Monte Carlo", {**CONFIG, **EXPERIMENT, **REPORT}),
    "forge": (cmd_forge, "double-spend experiment for a named strategy",
              {**CONFIG, **EXPERIMENT, "n": (int, 4), "beta": (float, 0.1), "trials": (int, 50),
               "fraction": (float, 0.0), "strategy": (str, "symmetric_clone"), **REPORT}),
    "plan": (cmd_plan, "smallest sample size meeting a security target",
             {"n": (int, REQUIRED), "beta": (float, REQUIRED),
              "security": (float, REQUIRED, "target failure probability"),
              "eta": (float, 1.0), "epsilon": (float, 0.0), **REPORT}),
    "coherent": (cmd_coherent, "weak coherent-pulse trade-off table",
                 {"alpha_sq": (str, "0.05:1.0:20", "sweep 'start:stop:count' or list '0.1,0.25'"),
                  "n": (int, 8), "eta": (float, 0.6, "detector efficiency"),
                  "epsilon": (float, 0.001), **CSV_REPORT}),
    "serve": (cmd_serve, "run the bank service",
              {"listen": (str, "127.0.0.1:7700", "HOST:PORT to bind"),
               "data": (str, None,
                        f"journal path (default: ${service.DATA_ENV_VAR} or {service.DEFAULT_JOURNAL})")}),
    "verify": (cmd_verify, "mint and verify one coin against a running service",
               {"connect": (str, REQUIRED, "HOST:PORT of the service"),
                "n": (int, 8), "q": (int, 10_000), "l": (int, 10), "beta": (float, 0.0), "eta": (float, 1.0),
                "epsilon": (float, 0.0), "seed": (int, None, "64-bit RNG seed"), **REPORT}),
}
CHOICES = {"format": ("csv", "json"), "strategy": tuple(adversary.BUILTIN_STRATEGIES)}


def _gather(args, inputs: dict) -> argparse.Namespace:
    """Each input's default, overridden by the config file's value, read
    with its key's type, then by the flag given."""
    values = {key: spec[1] for key, spec in inputs.items()}
    if getattr(args, "config", None):
        loaded = parse_config(args.config)
        unknown = set(loaded) - (inputs.keys() - CONFIG.keys() - REPORT.keys())
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, text in loaded.items():
            kind = inputs[key][0]
            try:
                values[key] = kind(text)
            except ValueError:
                raise ValueError(f"config key {key!r} needs {kind.__name__}, got {text!r}") from None
    for key in inputs:
        if (flag := getattr(args, key)) is not None:
            values[key] = flag
    return argparse.Namespace(**values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hmqm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, inputs) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for key, (kind, default, *about) in inputs.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind, required=default is REQUIRED,
                           choices=CHOICES.get(key), help=about[0] if about else None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    func, _, inputs = COMMANDS[args.command]
    try:
        args = _gather(args, inputs)
        if (report := func(args)) is not None:
            _report(*report, args.format, args.out)
        return 0
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
