"""The three workloads: seeded inputs, the calls of one round, their checks.

A round is a generator.  It yields ``(label, function, args[, kwargs])`` for
every top-level call into the package (one item each) and receives the call's
result back; between yields it checks results against an independent route
through ``ctx.check``.  Checks that need the package run under
``ctx.untraced()`` so they never count towards any layer.

Inputs vary with the seed only in their values: models, policies and beliefs
keep the same shapes and supports on every seed, so the amount of work per
round does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import json
import pathlib

import numpy as np

import occupancy_games as og
from occupancy_games import sampling

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Nominal reference seconds per round (about the baseline's).  A run makes
# round(seconds / nominal) rounds, so the round count, and with it the rank
# the tail latency is read at, depends only on --seconds and never on the
# machine's momentary speed.  At 18 s: solve 4, dynamics 4, verify 3 rounds,
# which puts the tail rank inside a group of equal-cost items.
NOMINAL_ROUND_S = {"solve": 4.3, "dynamics": 5.0, "verify": 6.2}

EXACT_TOL = 1e-9
SIM_EPISODES = 200_000
SIM_MAX_Z = 5.0

# solve: start beliefs per h=2 model (the first is the bundled one) and per
# one-stage criterion; unequal counts keep the median item inside one group
K_BELIEFS = 4
K_ONE_STAGE = 5
H2_CASES = [
    ("tiger-zs", "solve_zero_sum"),
    ("tiger", "solve_dec"),
    ("stackelberg-tiger", "solve_stackelberg"),
]
ONE_STAGE = [
    ("zerosum", "solve_zero_sum"),
    ("common", "solve_dec"),
    ("stackelberg", "solve_stackelberg"),
]

# dynamics: random model whose supports at t=2 total 10,368 over its four
# public branches (2 states x 36^2 joint histories each)
RANDOM_MODEL = dict(n_states=2, n_actions=(3, 3), n_obs=(2, 2), n_public=2, horizon=3)

# verify: fixed sample counts and check seeds; the seed moves start beliefs
# and the slave suite's fixed policy, which leaves the work unchanged
VERIFY_MODELS = ["tiger", "tiger-zs", "stackelberg-tiger"]
VERIFY_SAMPLES = dict(master=5, private=8, slave=3, structure=3, lipschitz=4)
CONTROL_SAMPLES = dict(master=2, private=3, slave=2, structure=3, lipschitz=3)
VERIFY_SEEDS = dict(master=11, private=(12, 13), slave=14, structure=15, lipschitz=16)
CONTROL_SEED = 17


def load_model(root: pathlib.Path, name: str) -> og.PosgModel:
    return og.parse_posg((root / "models" / f"{name}.posg").read_text())


def _belief(b: float) -> list[float]:
    return [float(b), 1.0 - float(b)]


def one_stage_value(criterion: str, b: float) -> float:
    """Closed-form agent-1 value of the one-stage two-door game at
    P(treasure) = b: cells listen/listen = 1, open/open = 4b - 2, else 0."""
    c = 4.0 * b - 2.0
    if criterion == "zerosum":
        return 0.0 if c <= 0.0 else c / (1.0 + c)
    return max(1.0, c)


class Context:
    """Seeded inputs of one workload plus the hooks a round reports through."""

    def __init__(self, name: str, seed: int, root: pathlib.Path, corrupt: float = 0.0):
        self.name = name
        self.failures: list[str] = []
        self.failed_items: set[int] = set()
        self.current_item = -1
        self.untraced = contextlib.nullcontext
        rng = np.random.default_rng(seed)
        getattr(self, f"_setup_{name}")(root, rng, corrupt)

    def check(self, ok: bool, message: str):
        if not ok:
            self.failed_items.add(self.current_item)
            self.failures.append(f"item {self.current_item}: {message}")

    # -- solve ------------------------------------------------------------

    def _setup_solve(self, root, rng, corrupt):
        ref = json.loads(REFERENCE.read_text())
        grid = ref["grid"]
        self.h2 = []
        for name, solver in H2_CASES:
            model = load_model(root, name)
            picks = [0.5] + [float(b) for b in rng.choice(grid, K_BELIEFS - 1)]
            for b in picks:
                values = [v + corrupt for v in ref["h2"][name][f"{b:.2f}"]]
                self.h2.append((name, solver, model.with_start(_belief(b)), values))
        base = load_model(root, "tiger-one-stage")
        self.one_stage = []
        for criterion, solver in ONE_STAGE:
            model = og.reinterpret_criterion(base, criterion)
            for b in rng.uniform(0.02, 0.98, K_ONE_STAGE):
                self.one_stage.append(
                    (criterion, solver, model.with_start(_belief(b)), one_stage_value(criterion, b))
                )

    def _round_solve(self):
        for name, solver, model, ref in self.h2:
            eq = yield f"{solver}:{name}", getattr(og, solver), (model,)
            worst = max(abs(v - r) for v, r in zip(eq.values, ref))
            self.check(worst <= EXACT_TOL, f"{name} values {eq.values} != reference {ref}")
            if solver == "solve_dec":
                joint = og.JointPolicy(tuple(next(iter(p.values())) for p in eq.policies))
                with self.untraced():
                    v = og.evaluate_occupancy(model, joint, og.initial_occupancy(model), 0)
                self.check(abs(v - eq.values[0]) <= EXACT_TOL, f"{name} policy value {v}")
        for criterion, solver, model, ref in self.one_stage:
            eq = yield f"{solver}:one-stage-{criterion}", getattr(og, solver), (model,)
            self.check(
                abs(eq.values[0] - ref) <= EXACT_TOL,
                f"one-stage {criterion} value {eq.values[0]} != closed form {ref}",
            )

    # -- dynamics ---------------------------------------------------------

    def _setup_dynamics(self, root, rng, corrupt):
        tiger = load_model(root, "tiger").with_horizon(3)
        rand = sampling.random_posg(rng, **RANDOM_MODEL)
        self.cases = []
        for label, model in (("tiger-h3", tiger), ("random-h3", rand)):
            policy = sampling.random_joint_policy(model, rng)
            sim_seed = int(rng.integers(2**31))
            self.cases.append((label, model, policy, sim_seed))

    def _round_dynamics(self):
        for label, model, policy, sim_seed in self.cases:
            rules = policy.joint_rules(model)
            s0 = og.initial_occupancy(model)
            rollout = [0.0] * model.n_agents
            branches = [(1.0, s0)]
            for t in range(model.horizon):
                nxt = []
                for p, s in branches:
                    for agent in range(model.n_agents):
                        r = yield f"expected_reward:{label}", og.expected_reward, (
                            model, s, rules[t], agent
                        )
                        rollout[agent] += p * model.discount**t * r
                    if t + 1 < model.horizon:
                        out = yield f"step:{label}", og.step, (model, s, rules[t])
                        nxt.extend((p * q, s2) for _, q, s2 in out)
                branches = nxt
            exact = []
            for agent in range(model.n_agents):
                v = yield f"evaluate_occupancy:{label}", og.evaluate_occupancy, (
                    model, policy, s0, agent
                )
                self.check(
                    abs(rollout[agent] - v) <= EXACT_TOL,
                    f"{label} agent {agent + 1} rollout {rollout[agent]} != {v}",
                )
                exact.append(v)
            others = {1: policy.agents[1]}
            br_h = yield f"best_response_history:{label}", og.best_response_history, (model, others, 0)
            br_p = yield f"best_response_private:{label}", og.best_response_private, (model, others, 0)
            self.check(
                abs(br_h.value - br_p.value) <= EXACT_TOL,
                f"{label} best responses {br_h.value} != {br_p.value}",
            )
            sim = yield f"simulate:{label}", og.simulate, (model, policy, SIM_EPISODES, sim_seed)
            for agent, value in enumerate(exact):
                z = abs(sim.means[agent] - value) / sim.stderrs[agent]
                self.check(
                    z <= SIM_MAX_Z,
                    f"{label} simulate mean {sim.means[agent]} of agent {agent + 1} is {z:.1f} SE off",
                )

    # -- verify -----------------------------------------------------------

    def _setup_verify(self, root, rng, corrupt):
        self.verify_models = []
        for name in VERIFY_MODELS:
            model = load_model(root, name).with_start(_belief(rng.uniform(0.2, 0.8)))
            policy = sampling.random_joint_policy(model, rng)
            self.verify_models.append((name, model, {1: policy.agents[1]}))

    def _round_verify(self):
        n, s = VERIFY_SAMPLES, VERIFY_SEEDS
        for name, model, others in self.verify_models:
            calls = [
                (og.check_sufficiency_master, (model, n["master"], s["master"], name), {}),
                (og.check_sufficiency_private, (model, 0, n["private"], s["private"][0], name), {}),
                (og.check_sufficiency_private, (model, 1, n["private"], s["private"][1], name), {}),
                (og.check_slave_structure, (model, others, 0, n["slave"], s["slave"], name), {}),
                (
                    og.check_master_structure,
                    (model, model.criterion, model.horizon, n["structure"], s["structure"], name),
                    {},
                ),
            ]
            if model.criterion == "zerosum":
                calls.append(
                    (og.check_lipschitz, (model, model.horizon, n["lipschitz"], s["lipschitz"], name), {})
                )
            # negative controls: each check again, with its corruption on
            c, seed = CONTROL_SAMPLES, CONTROL_SEED
            bad = {"negative_control": True}
            calls += [
                (og.check_sufficiency_master, (model, c["master"], seed, name), bad),
                (og.check_sufficiency_private, (model, 0, c["private"], seed, name), bad),
                (
                    og.check_slave_structure,
                    (model, others, 0, c["slave"], seed, name),
                    dict(bad, certificate_samples=1),
                ),
                (
                    og.check_master_structure,
                    (model, model.criterion, model.horizon, c["structure"], seed, name),
                    bad,
                ),
            ]
            if model.criterion == "zerosum":
                calls.append(
                    (og.check_lipschitz, (model, model.horizon, c["lipschitz"], seed, name), bad)
                )
            for fn, args, kwargs in calls:
                control = bool(kwargs)
                report = yield f"{fn.__name__}{':control' if control else ''}:{name}", fn, args, kwargs
                self.check(
                    report.passed != control,
                    f"{report.name} on {name} passed={report.passed} (control={control})",
                )

    def round(self):
        return getattr(self, f"_round_{self.name}")()


WORKLOADS = ("solve", "dynamics", "verify")
