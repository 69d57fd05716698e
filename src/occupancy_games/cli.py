"""Command-line entry points: parse, solve, evaluate, verify, sweep.

stdout carries data, stderr carries diagnostics.  Exit codes: 0 ok,
1 property failure, 2 parse/validation or usage error (a policy file that
leaves a reached history undefined included), 3 byte budget (--cap)
exceeded, 4 unknown suite, 5 bad sweep specification, 6 a solver result not
certified within the tolerance.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .errors import (
    CapExceededError,
    CertificateError,
    ModelValidationError,
    PosgParseError,
    UndefinedDecisionRuleError,
    UnknownSuiteError,
)
from .evaluate import (
    check_full_support_fits,
    check_policy_fits,
    evaluate_occupancy,
    simulate,
)
from .model import (
    CRITERIA,
    PosgModel,
    _infer_reward_tag,
    classify,
    parse_posg,
    reinterpret_criterion,
)
from .occupancy import initial_occupancy
from .policies import JointPolicy, policy_from_json, policy_to_json
from .sampling import check_random_policy_fits, random_joint_policy
from .solve import (
    Equilibrium,
    solve_dec,
    solve_stackelberg,
    solve_zero_sum,
    zero_sum_guarantees,
)
from .verify import _reads_tolerance, report_lines, run_suite, selected_suites

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_UNKNOWN_SUITE = 4
EXIT_BAD_SWEEP = 5
EXIT_UNCERTIFIED = 6


class _SweepSpecError(Exception):
    pass


class _UnreadFlagError(Exception):
    """A flag was given that nothing the command runs reads."""


# the exit code of each error ``main`` reports on one ``error:`` line
_EXIT_CODES = {
    OSError: EXIT_PARSE, PosgParseError: EXIT_PARSE, ModelValidationError: EXIT_PARSE,
    UndefinedDecisionRuleError: EXIT_PARSE,
    CapExceededError: EXIT_CAP, UnknownSuiteError: EXIT_UNKNOWN_SUITE,
    _SweepSpecError: EXIT_BAD_SWEEP, CertificateError: EXIT_UNCERTIFIED,
}


def _load_model(args) -> PosgModel:
    with open(args.model, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ModelValidationError(f"model file {args.model}: {exc}") from exc
    model = parse_posg(text)
    if getattr(args, "start", None) is not None:
        if len(args.start) != model.n_states:
            raise ModelValidationError(
                f"--start needs {model.n_states} probabilities, got {len(args.start)}"
            )
        model = model.with_start(args.start)
    if getattr(args, "horizon", None) is not None:
        model = model.with_horizon(args.horizon)
    if getattr(args, "criterion", None) is not None:
        model = reinterpret_criterion(model, args.criterion)
    return model


def _load_policy(model: PosgModel, path: str) -> JointPolicy:
    """The joint policy in a JSON file; any way the file fails to be a policy
    for ``model`` is one ``ModelValidationError`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            policy = policy_from_json(model, fh.read())
        check_policy_fits(model, policy)
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ModelValidationError(f"policy file {path}: {exc}") from exc
    return policy


def _cap(args) -> dict:
    return {} if args.cap is None else {"cap_bytes": args.cap}


def _solve(model: PosgModel, args) -> Equilibrium:
    """The solver of the model's criterion, with the --cap and --tolerance
    overrides applied; --tolerance is a usage error where no solver reads
    it."""
    caps = _cap(args)
    tolerance = {} if args.tolerance is None else {"tolerance": args.tolerance}
    if tolerance and model.criterion == "common":
        raise _UnreadFlagError("--tolerance: the common-payoff solver has no tolerance")
    if model.criterion == "zerosum":
        return solve_zero_sum(model, **tolerance, **caps)
    if model.criterion == "common":
        return solve_dec(model, **caps)
    if model.criterion == "stackelberg":
        return solve_stackelberg(model, **tolerance, **caps)
    raise ModelValidationError(
        "no solver for criterion 'general'; pass --criterion to choose one"
    )


def _count_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return count


def _tolerance(text: str) -> float:
    """argparse type: a finite number no smaller than 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _fmt(x: float) -> str:
    return f"{x + 0.0 if x != 0 else 0.0:.10g}"


def cmd_parse(args) -> int:
    model = _load_model(args)
    print(f"agents: {model.n_agents}")
    print(f"states: {' '.join(model.states)}")
    for i in range(model.n_agents):
        print(f"actions_{i + 1}: {' '.join(model.actions[i])}")
    for i in range(model.n_agents):
        print(f"observations_{i + 1}: {' '.join(model.private_obs[i])}")
    print(f"public_observations: {' '.join(model.public_obs)}")
    print(f"discount: {_fmt(model.discount)}")
    print(f"horizon: {model.horizon}")
    print(f"start: {' '.join(_fmt(p) for p in model.start)}")
    print(f"criterion: {model.criterion}")
    print(f"classified: {classify(model)}")
    print(f"rewards: {_infer_reward_tag(model)}")
    print(f"reward_bound: {_fmt(model.reward_bound)}")
    return EXIT_OK


def cmd_solve(args) -> int:
    model = _load_model(args)
    started = time.monotonic()
    eq = _solve(model, args)
    runtime = time.monotonic() - started
    print(f"criterion: {eq.criterion}")
    print(f"horizon: {model.horizon}")
    for i, v in enumerate(eq.values):
        print(f"value_{i + 1}: {_fmt(v)}")
    for i, mix in enumerate(eq.mixtures):
        text = " ".join(f"{idx}:{_fmt(w)}" for idx, w in sorted(mix.items()))
        print(f"mixture_{i + 1}: {text}")
    print(f"method: {eq.metadata.get('method', '')}")
    if eq.criterion == "zerosum":
        print(f"sequences: {' '.join(map(str, eq.metadata['sequences']))}")
        if "iterations" in eq.metadata:  # the double oracle's restricted sets
            print(f"iterations: {eq.metadata['iterations']}")
        print(f"duality_gap: {_fmt(eq.metadata['duality_gap'])}")
        print(f"residual: {_fmt(eq.metadata['residual'])}")
    if eq.criterion == "stackelberg":
        print(f"follower_regret: {_fmt(eq.metadata['follower_regret'])}")
    print(f"runtime_s: {runtime:.3f}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = _load_model(args)
    if args.policy:
        policy = _load_policy(model, args.policy)
    else:
        # a Dirichlet-drawn rule plays every action: exact evaluation's
        # bytes are counted before the draw
        check_random_policy_fits(model)
        check_full_support_fits(model)
        policy = random_joint_policy(model, np.random.default_rng(args.seed))
        print("policy: random behavioral (seeded)", file=sys.stderr)
    s0 = initial_occupancy(model)
    for i in range(model.n_agents):
        print(f"value_{i + 1}: {_fmt(evaluate_occupancy(model, policy, s0, i))}")
    if args.episodes:
        result = simulate(model, policy, args.episodes, args.seed)
        for i in range(model.n_agents):
            print(
                f"simulated_{i + 1}: mean={_fmt(result.means[i])} "
                f"stderr={_fmt(result.stderrs[i])} episodes={result.episodes}"
            )
    if args.dump_policy:
        with open(args.dump_policy, "w", encoding="utf-8") as fh:
            fh.write(policy_to_json(model, policy))
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _load_model(args)
    suites = selected_suites(model, args.suite)
    kwargs = {}
    if args.tolerance is not None:
        if not _reads_tolerance(model, suites):
            raise _UnreadFlagError(
                "--tolerance: only the master and lipschitz checks and their controls read it"
            )
        kwargs = {"tolerance_solver": args.tolerance}
    reports = run_suite(
        model,
        suites=suites,
        seed=args.seed,
        n_samples=args.samples,
        fixture=args.model,
        **kwargs,
    )
    sys.stdout.write(report_lines(reports) if reports else "")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_PROPERTY_FAILURE


def cmd_sweep(args) -> int:
    model = _load_model(args)
    if model.n_states != 2:
        raise _SweepSpecError(
            f"belief-grid sweeps need exactly 2 states, model has {model.n_states}"
        )
    if args.grid < 2:
        raise _SweepSpecError("--grid must be at least 2")
    if model.criterion == "general":
        raise _SweepSpecError("sweep needs a zerosum/common/stackelberg criterion")
    rows = []
    header = "belief,value"
    for b in np.linspace(0.0, 1.0, args.grid):
        at_b = model.with_start([float(b), float(1.0 - b)])
        eq = _solve(at_b, args)
        fields = [_fmt(b), _fmt(eq.values[0])]
        if eq.criterion == "zerosum":
            components = zero_sum_guarantees(at_b, **_cap(args))
            if not rows:
                header += "," + ",".join(f"component_{j}" for j in range(len(components)))
            fields += [_fmt(v) for v in components]
        rows.append(",".join(fields))
    text = header + "\n" + "\n".join(rows) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({args.grid} points)", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ogs",
        description="Occupancy-state planning and verification for finite-horizon POSGs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--seed": dict(type=_count_at_least(0), default=0, help="RNG seed (default 0)"),
        "--tolerance": dict(
            type=_tolerance,
            default=None,
            help="tolerance override: in solve and sweep, the largest zero-sum "
            "certificate (duality gap plus both exploitabilities) or Stackelberg "
            "follower regret per unit of the largest payoff entry; in verify, the "
            "largest violation the master and lipschitz checks accept, also in "
            "their negative controls (each control reruns its check at the "
            "check's tolerance and seed); a usage error where nothing reads it",
        ),
        "--cap": dict(
            type=_count_at_least(0),
            default=None,
            help="budget in bytes, checked before anything is built (default "
            "2**30).  Common payoff, Stackelberg and a zero-sum sweep's "
            "component columns: the dense arrays a solver builds, every depth "
            "block of the sequence-form walk, each enumerated agent's "
            "realization matrix and the payoffs contracted with it, predicted "
            "from the full tries; that count does not bound peak memory, which "
            "runs 2-4 times higher.  Zero-sum: the most each walk of the double "
            "oracle holds at once, counted before the walk; it starts from the "
            "whole tries only where that walk fits",
        ),
        "--horizon": dict(type=int, default=None, help="horizon override"),
        "--start": dict(
            type=float, nargs="+", default=None, help="start belief override"
        ),
        "--criterion": dict(
            choices=CRITERIA,
            default=None,
            help="reinterpret the game under this criterion "
            "(rebuilds opponent rewards from agent 1's table)",
        ),
    }

    def common(p, *flags):
        p.set_defaults(usage_error=p.error)
        p.add_argument("model", help="path to a .posg model file")
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("parse", help="parse and validate a model, print a summary")
    common(p, "--horizon", "--start", "--criterion")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("solve", help="solve for the model's criterion at the start belief")
    common(p, "--tolerance", "--cap", "--horizon", "--start", "--criterion")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="evaluate a joint policy exactly and by simulation")
    common(p, "--seed", "--horizon", "--start", "--criterion")
    p.add_argument("--policy", default=None, help="policy JSON file (default: seeded random)")
    p.add_argument(
        "--episodes", type=_count_at_least(0), default=0,
        help="Monte Carlo episodes (0: no simulation)",
    )
    p.add_argument("--dump-policy", default=None, help="write the evaluated policy as JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("verify", help="run numerical verification suites")
    common(p, "--seed", "--tolerance", "--horizon", "--start", "--criterion")
    p.add_argument(
        "--suite",
        default="all",
        help="comma-separated, run in order and each once: sufficiency, slave, master, "
        "lipschitz, controls, or all (every suite but controls that applies), anywhere "
        "in the list.  controls reruns the checks of the suites named beside it with "
        "their corruptions injected, or every check that applies if named alone",
    )
    p.add_argument(
        "--samples", type=_count_at_least(1), default=50, help="samples per check"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="value curve over a belief grid, as CSV")
    common(p, "--tolerance", "--cap", "--horizon", "--criterion")
    p.add_argument("--grid", type=int, default=101, help="number of belief points")
    p.add_argument("--output", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    except _UnreadFlagError as exc:
        args.usage_error(str(exc))  # exits 2 with the subcommand's usage


if __name__ == "__main__":
    sys.exit(main())
