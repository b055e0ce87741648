"""Seeded workloads: inputs, timed operations and their correctness checks.

Each workload turns a seed into inputs (the set-up the benchmark times as
``setup_s``) and three operations, one per end-to-end slot ``op1_s``,
``op2_s`` and ``op3_s``.  A round calls each operation ``repeat`` times.
An operation's check compares its output with an oracle computed outside
the timed region, mostly by code that does not go through zeno_qfi at all.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from zeno_qfi import channels, cli, qfi, states, zeno

POOL = 6  # seeded inputs per operation, used in turn

N_TRAJECTORY, M_TRAJECTORY = (8, 6, 4), 100
N_EXACT, N_COMPLETE, N_ANSATZ = 5, 4, 8

FACTORISATION_TOL = 1e-12  # measured about 4e-14
REFERENCE_TOL = 1e-9
TRACE_TOL = 1e-10
ADDITIVITY_TOL = 1e-6  # the oracle converges to 1e-5; measured up to 1.4e-8
COMPLETE_VS_SLD_TOL = 1e-6  # measured about 1e-9
CLOSED_FORM_TOL = 1e-8


@dataclass
class Op:
    """One timed operation.  ``run(k)`` makes the operation's k-th call, on
    pooled input k mod POOL; ``check(k, result)`` returns an error message
    or None."""

    slot: str
    name: str
    run: Callable[[int], object]
    check: Callable[[int, object], str | None]
    repeat: int = 1  # calls per round, so that short operations get more samples


def _random_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _kron_all(factors) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def _system(amps: np.ndarray) -> states.StateVector:
    n = int(amps.size).bit_length() - 1
    return states.StateVector(amps, (states.SYSTEM,) * n)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# Independent oracles (plain numpy, no zeno_qfi code)


def reference_trajectory(psi0, n, omega0, gamma, tau, m):
    """Survival probability and conditional system state of the dephasing
    model, simulated pair by pair: qubit pair i is (system i, environment i)
    and evolves under exp(-i gamma tau Z x X / 2) exp(-i omega0 tau Z x I / 2).
    """
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    a, b = omega0 * tau / 2.0, gamma * tau / 2.0
    rot_z = np.kron(np.diag([np.exp(-1j * a), np.exp(1j * a)]), np.eye(2))
    u_pair = (math.cos(b) * np.eye(4) - 1j * math.sin(b) * np.kron(z, x)) @ rot_z
    u_pair = u_pair.reshape(2, 2, 2, 2)
    dim = 2**n
    state = np.zeros((dim, dim), dtype=complex)  # system rows, environment columns
    state[:, 0] = psi0
    probability = 1.0
    for _ in range(m):
        tensor = state.reshape((2,) * (2 * n))
        for i in range(n):
            tensor = np.tensordot(u_pair, tensor, axes=([2, 3], [i, n + i]))
            tensor = np.moveaxis(tensor, (0, 1), (i, n + i))
        env_vec = psi0.conj() @ tensor.reshape(dim, dim)
        weight = float(np.vdot(env_vec, env_vec).real)
        probability *= weight
        state = np.outer(psi0, env_vec / math.sqrt(weight))
    return probability, state @ state.conj().T


def qfi_one_qubit(omega0, gamma, tau):
    return omega0**2 * math.cos(gamma * tau) ** 2 + gamma**2


def qfi_ghz(n, omega0, gamma, tau):
    c, s = math.cos(gamma * tau), math.sin(gamma * tau)
    return omega0**2 * n**2 * c**2 / (c**2 + n * s**2) + n * gamma**2


def qfi_ghz_large_n(n, omega0, gamma, tau):
    c, s = math.cos(gamma * tau), math.sin(gamma * tau)
    return n * (gamma**2 + omega0**2 * (c / s) ** 2)


# ---------------------------------------------------------------------------
# trajectory


def trajectory(seed: int, out_dir: str) -> list[Op]:
    """Survival under M_TRAJECTORY measurements at three register sizes:
    N = 8 (2^16 amplitudes, 1 MiB a vector), N = 6 (64 KiB, inside a
    core's cache) and N = 4, where per-call costs dominate."""
    rng = np.random.default_rng(seed)
    m = M_TRAJECTORY
    omega0, gamma = (float(v) for v in rng.uniform(0.5, 1.5, 2))
    tau = float(rng.uniform(0.03, 0.07))
    schedule = zeno.ZenoSchedule(m, tau)
    one_qubit = channels.build_dephasing_model(1, omega0, gamma)
    env1 = states.zero_environment(1)

    def inputs(n):
        """Alternating product and entangled inputs; product ones keep
        their one-qubit factors for the factorisation check."""
        pool = []
        for k in range(POOL):
            if k % 2 == 0:
                factors = [_random_qubit(rng) for _ in range(n)]
                pool.append((factors, zeno.ZenoProjector(_system(_kron_all(factors)))))
            else:
                pool.append((None, zeno.ZenoProjector(_system(_random_state(rng, 2**n)))))
        return pool

    sizes = {
        n: (channels.build_dephasing_model(n, omega0, gamma), states.zero_environment(n), inputs(n))
        for n in N_TRAJECTORY
    }

    def run(n, name):
        """Looks the function up on each call, so that a traced run's wrapper
        is the one called."""
        model, env0, pool = sizes[n]
        return lambda k: getattr(zeno, name)(model, pool[k % POOL][1], env0, schedule)

    @functools.cache
    def expected(n, k):
        """Oracles for pooled input k: the reference simulation, and for a
        product input also the product of one-qubit survivals."""
        factors, projector = sizes[n][2][k]
        p_ref, rho_ref = reference_trajectory(projector.psi0.amplitudes, n, omega0, gamma, tau, m)
        p_product = None
        if factors is not None:
            p_product = math.prod(
                zeno.survival_probability_exact(
                    one_qubit, zeno.ZenoProjector(_system(f)), env1, schedule
                )
                for f in factors
            )
        return p_ref, rho_ref, p_product

    def check(n):
        def check_result(k, result):
            p_ref, rho_ref, p_product = expected(n, k % POOL)
            if isinstance(result, float):
                if not 0.0 <= result <= 1.0 or _rel(result, p_ref) > REFERENCE_TOL:
                    return f"survival {result!r} outside [0, 1] or not the reference {p_ref!r}"
                if p_product is not None and abs(result - p_product) > FACTORISATION_TOL:
                    return f"product survival {result!r} does not factorise to {p_product!r}"
                return None
            trace_err = abs(result.trace - 1.0)
            diff = float(np.abs(result.matrix - rho_ref).max())
            if trace_err > TRACE_TOL or diff > REFERENCE_TOL:
                return f"conditional state: |tr-1| = {trace_err:.3e}, max diff {diff:.3e}"
            return None

        return check_result

    big, mid, small = N_TRAJECTORY
    return [
        Op("op1_s", f"survival_probability_exact, N={big}",
           run(big, "survival_probability_exact"), check(big)),
        Op("op2_s", f"conditional_state, N={mid}",
           run(mid, "conditional_state"), check(mid), repeat=5),
        Op("op3_s", f"survival_probability_exact, N={small}",
           run(small, "survival_probability_exact"), check(small), repeat=10),
    ]


# ---------------------------------------------------------------------------
# channel-qfi


def channel_qfi(seed: int, out_dir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    omega0, gamma = (float(v) for v in rng.uniform(0.5, 1.5, 2))
    tau = float(rng.uniform(0.1, 0.6))

    exact_model = channels.build_dephasing_model(N_EXACT, omega0, gamma)
    one_qubit = channels.build_dephasing_model(1, omega0, gamma)
    factors = [[_random_qubit(rng) for _ in range(N_EXACT)] for _ in range(POOL)]
    product = [_system(_kron_all(f)) for f in factors]

    complete_model = channels.build_dephasing_model(N_COMPLETE, omega0, gamma)
    complete_h = channels.generator(complete_model)
    complete_basis = qfi.EnvOperatorBasis.complete(complete_model.labels)
    env4 = states.zero_environment(N_COMPLETE)
    pure = [_system(_random_state(rng, 2**N_COMPLETE)) for _ in range(POOL)]
    pure_full = [states.tensor_state(s, env4) for s in pure]

    ansatz_model = channels.build_dephasing_model(N_ANSATZ, omega0, gamma)
    ansatz_h = channels.generator(ansatz_model)
    ansatz_basis = qfi.EnvOperatorBasis.single_qubit_paulis(ansatz_model.labels)
    env8 = states.zero_environment(N_ANSATZ)
    families = [
        (
            states.tensor_state(states.ghz_state(N_ANSATZ), env8),
            qfi_ghz(N_ANSATZ, omega0, gamma, tau),
        ),
        (
            states.tensor_state(states.plus_state(N_ANSATZ), env8),
            N_ANSATZ * qfi_one_qubit(omega0, gamma, tau),
        ),
    ]

    @functools.cache
    def additive(k):
        return sum(qfi.qfi_sld_oracle(one_qubit, _system(f), tau) for f in factors[k])

    @functools.cache
    def sld(k):
        return qfi.qfi_sld_oracle(complete_model, pure[k], tau)

    def check_exact(i, value):
        expect = additive(i % POOL)
        if _rel(value, expect) > ADDITIVITY_TOL:
            return f"SLD oracle {value!r} is not additive: one-qubit sum {expect!r}"
        return None

    def check_complete(i, solution):
        expect = sld(i % POOL)
        if _rel(solution.qfi, expect) > COMPLETE_VS_SLD_TOL:
            return f"complete-basis minimum {solution.qfi!r} != SLD oracle {expect!r}"
        return None

    def check_ansatz(i, solution):
        expect = families[i % 2][1]
        if _rel(solution.qfi, expect) > CLOSED_FORM_TOL:
            return f"per-qubit minimum {solution.qfi!r} != closed form {expect!r}"
        return None

    return [
        Op(
            "op1_s",
            "qfi_sld_oracle, N=5 product input",
            lambda i: qfi.qfi_sld_oracle(exact_model, product[i % POOL], tau),
            check_exact,
        ),
        Op(
            "op2_s",
            "minimize_qfi_bound, complete basis, N=4",
            lambda i: qfi.minimize_qfi_bound(
                complete_h, complete_basis, pure_full[i % POOL], tau
            ),
            check_complete,
            repeat=3,
        ),
        Op(
            "op3_s",
            "minimize_qfi_bound, per-qubit basis, N=8",
            lambda i: qfi.minimize_qfi_bound(
                ansatz_h, ansatz_basis, families[i % 2][0], tau
            ),
            check_ansatz,
            repeat=3,
        ),
    ]


# ---------------------------------------------------------------------------
# cli


def _cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def _rows(text: str):
    lines = text.strip().split("\n")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def _sweep_error(mode: str, text: str) -> str | None:
    """Re-derive every sweep row from the closed forms (omega0 = 1,
    omega0*tau = 0.5, the CLI defaults)."""
    tau = 0.5
    worst = 0.0
    rows = _rows(text)
    for row in rows:
        if mode == "qfi-vs-gamma":
            n, g, f_en, f_se = row
            expect = (qfi_ghz(int(n), 1.0, g, tau), n * qfi_one_qubit(1.0, g, tau))
            got = (f_en, f_se)
        elif mode == "ratio-vs-N":
            n, g, f_en, f_se, ratio, asym = row
            one = qfi_one_qubit(1.0, g, tau)
            en = qfi_ghz(int(n), 1.0, g, tau)
            expect = (en, n * one, en / (n * one), qfi_ghz_large_n(1, 1.0, g, tau) / one)
            got = (f_en, f_se, ratio, asym)
        else:
            n, m, g, t_en, t_inf, t_se = row
            expect = tuple(
                2.0 / math.sqrt(m * f)
                for f in (
                    qfi_ghz(int(n), 1.0, g, tau),
                    qfi_ghz_large_n(int(n), 1.0, g, tau),
                    n * qfi_one_qubit(1.0, g, tau),
                )
            )
            got = (t_en, t_inf, t_se)
        worst = max([worst] + [_rel(a, b) for a, b in zip(got, expect)])
    if not rows or worst > CLOSED_FORM_TOL:
        return f"{mode}: {len(rows)} rows, worst relative error {worst:.3e}"
    return None


def cli_workload(seed: int, out_dir: str) -> list[Op]:
    seed_args = ["--seed", str(seed)]
    paths = {
        mode: os.path.join(out_dir, f"{mode}.csv")
        for mode in ("qfi-vs-gamma", "ratio-vs-N", "zeno-time")
    }
    first: dict[str, bytes] = {}

    def sweep(*modes):
        def run(i):
            outputs = {}
            for mode in modes:
                code, _ = _cli([mode, *seed_args, "--out", paths[mode]])
                with open(paths[mode], "rb") as handle:
                    outputs[mode] = (code, handle.read())
            return outputs

        return run

    def check_sweep(i, outputs):
        for mode, (code, data) in outputs.items():
            if code != 0:
                return f"{mode} exited with {code}"
            if mode not in first:
                error = _sweep_error(mode, data.decode())
                if error:
                    return error
                first[mode] = data
            elif data != first[mode]:
                return f"{mode} output differs from the first call with the same seed"
        return None

    def check_verify(i, result):
        code, text = result
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        if code != 0 or last != "verification PASSED":
            return f"verify exited with {code}, last line {last!r}"
        return None

    return [
        Op("op1_s", "cli verify", lambda i: _cli(["verify", *seed_args]), check_verify),
        Op("op2_s", "cli qfi-vs-gamma", sweep("qfi-vs-gamma"), check_sweep),
        Op("op3_s", "cli ratio-vs-N and zeno-time", sweep("ratio-vs-N", "zeno-time"), check_sweep),
    ]


# The metric names a user of each workload reads, and the slots that make
# them up: a sample is the sum of the listed slots' samples taken in turn.
NAMED = {
    "trajectory": (
        ("trajectory_s", ("op1_s",)),
        ("conditional_state_n6_s", ("op2_s",)),
        ("trajectory_n4_s", ("op3_s",)),
    ),
    "channel-qfi": (
        ("exact_qfi_s", ("op1_s",)),
        ("variational_qfi_s", ("op2_s",)),
        ("ansatz_bound_s", ("op3_s",)),
    ),
    "cli": (
        ("verify_s", ("op1_s",)),
        ("sweeps_s", ("op2_s", "op3_s")),
    ),
}

WORKLOADS = {
    "trajectory": trajectory,
    "channel-qfi": channel_qfi,
    "cli": cli_workload,
}


def warm_up(workload: str) -> None:
    """Run the workload's code paths once, untimed, at its register sizes
    but with little work, so that lazy imports, first-call allocations and
    the process's first page faults at that size are not timed."""
    if workload == "cli":
        _cli(["verify"])
        return
    n = N_TRAJECTORY[0] if workload == "trajectory" else N_EXACT
    model = channels.build_dephasing_model(n, 1.0, 1.0)
    plus = states.plus_state(n)
    env = states.zero_environment(n)
    if workload == "trajectory":
        projector = zeno.ZenoProjector(plus)
        zeno.conditional_state(model, projector, env, zeno.ZenoSchedule(10, 0.05))
        return
    qfi.qfi_sld_oracle(channels.build_dephasing_model(2, 1.0, 1.0), states.plus_state(2), 0.3)
    qfi.minimize_qfi_bound(
        channels.generator(model),
        qfi.EnvOperatorBasis.single_qubit_paulis(model.labels),
        states.tensor_state(plus, env),
        0.3,
    )
