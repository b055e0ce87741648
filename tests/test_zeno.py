import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeno_qfi import channels, zeno
from zeno_qfi.channels import (
    DilatedEvolution,
    _evolved_amplitudes,
    build_dephasing_model,
    evolve,
    generator,
    kraus_from_dilation,
)
from zeno_qfi.exceptions import DenseCapError, DimensionMismatchError
from zeno_qfi.paulis import OperatorSum, PauliTerm, to_dense, variance
from zeno_qfi.qfi import (
    EnvOperatorBasis,
    conjugate_env_operator,
    minimize_qfi_bound,
    qfi_sld_oracle,
)
from zeno_qfi.states import (
    ENVIRONMENT,
    SYSTEM,
    StateVector,
    _system_env_join,
    _system_env_split,
    basis_state,
    ghz_state,
    plus_state,
    system_env_matrix,
    tensor_state,
    zero_environment,
)
from zeno_qfi.zeno import (
    ZenoProjector,
    ZenoSchedule,
    _survival_by_collapse,
    conditional_state,
    survival_probability_exact,
    survival_probability_quadratic,
    zeno_hamiltonian,
    zeno_time,
)


def one_pair_setup(omega0=1.0, gamma=1.0):
    model = build_dephasing_model(1, omega0, gamma)
    projector = ZenoProjector(plus_state(1))
    env0 = zero_environment(1)
    return model, projector, env0


# ---- schedules and projectors ----


def test_schedule_validation():
    for m in (0, 2.5, True, math.nan, "3", 10**400, 2**53 + 1, 10**30):
        with pytest.raises(ValueError):
            ZenoSchedule(m, 0.1)
    with pytest.raises(ValueError):
        ZenoSchedule(3, 0.0)
    assert ZenoSchedule(2**53, 0.1).m == 2**53


def test_schedule_takes_a_whole_m_on_both_routes():
    """m = 2.0 is stored as the int 2, so the closed form and the collapse
    loop both run two measurements; 2.5 used to reach the closed form as
    "2.5 measurements" and a TypeError in the loop."""
    schedule = ZenoSchedule(2.0, 0.3)
    assert type(schedule.m) is int and schedule == ZenoSchedule(2, 0.3)
    model, projector, env0 = one_pair_setup()
    closed = survival_probability_exact(model, projector, env0, schedule)
    loop = _survival_by_collapse(model, projector, env0, schedule)
    assert closed == survival_probability_exact(model, projector, env0, ZenoSchedule(2, 0.3))
    assert closed == pytest.approx(loop, rel=1e-12, abs=0)


@pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
def test_non_finite_interval_is_refused_where_it_enters(tau):
    """On the 2-pair model with a GHZ input, each entry point that takes an
    interval names it in a ValueError instead of returning a survival of 0,
    NaN amplitudes or a LinAlgError; finite values, negative ones
    included, stay accepted where they were."""
    model = build_dephasing_model(2, 1.0, 1.0)
    full = tensor_state(ghz_state(2), zero_environment(2))
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    entries = {
        "schedule": lambda t: ZenoSchedule(3, t),
        "solver": lambda t: minimize_qfi_bound(generator(model), basis, full, t),
        "oracle": lambda t: qfi_sld_oracle(model, ghz_state(2), t),
        "evolve": lambda t: evolve(model, full, t),
        "kraus": lambda t: kraus_from_dilation(model, t),
        "conjugation": lambda t: conjugate_env_operator(
            basis.elements[1], generator(model), t
        ),
    }
    for call in entries.values():
        with pytest.raises(ValueError, match=f"must be .*finite, got {tau}"):
            call(tau)
    for name in ("solver", "evolve", "kraus", "conjugation"):
        entries[name](-0.4)


def test_projector_requires_system_labels():
    with pytest.raises(ValueError):
        ZenoProjector(zero_environment(1))


# ---- exact survival probability ----


def random_state(rng, n, label):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(amps, (label,) * n).normalized()


def interleaved_model(n, omega0, gamma):
    """The dephasing model on an (S, E, S, E, ...) register: block position
    i moves to 2i for a system qubit and to 2(i - n) + 1 for its partner."""
    block = build_dephasing_model(n, omega0, gamma)
    where = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    rotations = []
    for rate, pauli in block.rotations:
        chars = ["I"] * 2 * n
        for pos, ch in zip(where, pauli.factors):
            chars[pos] = ch
        rotations.append((rate, PauliTerm(1.0, "".join(chars))))
    return DilatedEvolution((SYSTEM, ENVIRONMENT) * n, rotations)


def swapped_model():
    """Two pairs with system 0 coupled to environment 1 and vice versa."""
    return DilatedEvolution(
        (SYSTEM,) * 2 + (ENVIRONMENT,) * 2,
        (
            (1.0, PauliTerm(1.0, "ZIII")),
            (1.0, PauliTerm(1.0, "ZIIX")),  # system 0 -> environment 1
            (1.0, PauliTerm(1.0, "IZII")),
            (1.0, PauliTerm(1.0, "IZXI")),  # system 1 -> environment 0
        ),
    )


def test_commuting_projector_survives_exactly():
    # psi0 = |0> is a Z eigenstate, so the projector commutes with both
    # rotation axes and nothing ever leaks out
    model = build_dephasing_model(1, 1.0, 1.0)
    projector = ZenoProjector(basis_state(0, (SYSTEM,)))
    p = survival_probability_exact(
        model, projector, zero_environment(1), ZenoSchedule(10, 0.3)
    )
    assert p == pytest.approx(1.0, abs=1e-12)


def test_single_measurement_closed_system():
    omega0, tau = 1.0, 0.8
    model, projector, env0 = one_pair_setup(omega0, 0.0)
    p = survival_probability_exact(model, projector, env0, ZenoSchedule(1, tau))
    assert p == pytest.approx(np.cos(omega0 * tau / 2) ** 2, abs=1e-12)


def test_single_measurement_with_coupling():
    """m=1 survival has the closed form cos^2(w t/2)cos^2(g t/2) +
    sin^2(w t/2)sin^2(g t/2)."""
    omega0, gamma, tau = 1.0, 1.3, 0.6
    model, projector, env0 = one_pair_setup(omega0, gamma)
    p = survival_probability_exact(model, projector, env0, ZenoSchedule(1, tau))
    a, b = omega0 * tau / 2, gamma * tau / 2
    expected = np.cos(a) ** 2 * np.cos(b) ** 2 + np.sin(a) ** 2 * np.sin(b) ** 2
    assert p == pytest.approx(expected, abs=1e-12)


def test_survival_in_unit_range():
    model, projector, env0 = one_pair_setup()
    for m, tau in ((1, 2.0), (7, 0.3), (40, 0.01)):
        p = survival_probability_exact(model, projector, env0, ZenoSchedule(m, tau))
        assert 0.0 <= p <= 1.0 + 1e-12


def test_survival_close_to_quadratic_at_small_tau():
    model, projector, env0 = one_pair_setup()
    m, tau = 20, 0.01
    exact = survival_probability_exact(model, projector, env0, ZenoSchedule(m, tau))
    # Var(H) = (w^2 + g^2)/4 = 0.5 for this model and state
    quad = 1 - m * 0.5 * tau**2
    rates = np.hypot(1.0, 1.0)
    assert abs(exact - quad) <= 5 * m * tau**3 * rates**3


def test_survival_invariant_under_global_phase():
    model, _, env0 = one_pair_setup()
    shifted = ZenoProjector(
        StateVector(np.exp(0.7j) * plus_state(1).amplitudes, (SYSTEM,))
    )
    schedule = ZenoSchedule(5, 0.2)
    p1 = survival_probability_exact(
        model, ZenoProjector(plus_state(1)), env0, schedule
    )
    p2 = survival_probability_exact(model, shifted, env0, schedule)
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_survival_invariant_under_environment_relabeling():
    """Swapping which environment qubit each system qubit couples to cannot
    change the survival probability when the environment starts symmetric."""
    canonical = build_dephasing_model(2, 1.0, 1.0)
    swapped = swapped_model()
    projector = ZenoProjector(ghz_state(2))
    env0 = zero_environment(2)
    schedule = ZenoSchedule(4, 0.35)
    p1 = survival_probability_exact(canonical, projector, env0, schedule)
    p2 = survival_probability_exact(swapped, projector, env0, schedule)
    assert p1 == pytest.approx(p2, rel=1e-12)


def assert_closed_form_matches_collapse(model, projector, env0, schedule):
    closed = survival_probability_exact(model, projector, env0, schedule)
    loop = _survival_by_collapse(model, projector, env0, schedule)
    assert closed == pytest.approx(loop, rel=1e-12, abs=0)
    return closed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_form_matches_collapse_on_random_inputs(n):
    rng = np.random.default_rng(100 + n)
    model = build_dephasing_model(n, *rng.uniform(0.5, 1.5, 2))
    projector = ZenoProjector(random_state(rng, n, SYSTEM))
    env0 = random_state(rng, n, ENVIRONMENT)
    for m in (1, 100, 1000):
        schedule = ZenoSchedule(m, float(rng.uniform(0.02, 0.06)))
        assert_closed_form_matches_collapse(model, projector, env0, schedule)


def test_closed_form_matches_collapse_at_eight_pairs():
    rng = np.random.default_rng(8)
    model = build_dephasing_model(8, 0.9, 1.2)
    projector = ZenoProjector(random_state(rng, 8, SYSTEM))
    env0 = random_state(rng, 8, ENVIRONMENT)
    assert_closed_form_matches_collapse(model, projector, env0, ZenoSchedule(20, 0.05))


@pytest.mark.parametrize(
    "model",
    [swapped_model(), interleaved_model(2, 0.8, 1.3), interleaved_model(3, 1.1, 0.7)],
)
def test_closed_form_matches_collapse_in_any_label_order(model):
    rng = np.random.default_rng(17)
    n = model.n_qubits // 2
    projector = ZenoProjector(random_state(rng, n, SYSTEM))
    for env0 in (zero_environment(n), random_state(rng, n, ENVIRONMENT)):
        for m in (1, 100):
            schedule = ZenoSchedule(m, 0.1)
            assert_closed_form_matches_collapse(model, projector, env0, schedule)


def test_closed_form_with_plus_environment_skips_empty_x():
    """env0 = |+>^N puts all weight on x = 0: p(x) = 0 elsewhere, which
    must not reach a log (warnings are errors in this suite)."""
    rng = np.random.default_rng(5)
    model = build_dephasing_model(3, 1.0, 0.7)
    projector = ZenoProjector(random_state(rng, 3, SYSTEM))
    env0 = plus_state(3, ENVIRONMENT)
    assert zeno._x_basis_weights(env0)[1:].max() == 0.0
    assert_closed_form_matches_collapse(model, projector, env0, ZenoSchedule(40, 0.1))


def sylvester_hadamard(n):
    """The dense +-1 Hadamard matrix H[x, e] = (-1)^popcount(x & e)."""
    index = np.arange(2**n)
    parity = np.bitwise_count(index[:, None] & index[None, :]) % 2
    return 1.0 - 2.0 * parity


@pytest.mark.parametrize("n", range(1, 10))
def test_x_basis_weights_match_a_dense_hadamard(n):
    """The Walsh-Hadamard transform against one dense +-1 matmul, on
    random environment states."""
    rng = np.random.default_rng(50 + n)
    env0 = random_state(rng, n, ENVIRONMENT)
    dense = np.abs(sylvester_hadamard(n) @ env0.amplitudes) ** 2 / 2**n
    np.testing.assert_allclose(zeno._x_basis_weights(env0), dense, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [5, 9])
def test_x_basis_weights_are_exact_on_zero_and_plus(n):
    """|0...0> gives p = 2^-N exactly, and |+>^N exact zeros off x = 0:
    every step of the transform adds or subtracts two equal amplitudes."""
    zero = zeno._x_basis_weights(zero_environment(n))
    assert np.array_equal(zero, np.full(2**n, 2.0**-n))
    plus = zeno._x_basis_weights(plus_state(n, ENVIRONMENT))
    assert plus[1:].max() == 0.0 and plus[0] == pytest.approx(1.0, abs=1e-15)


def test_closed_form_at_a_million_measurements():
    rng = np.random.default_rng(6)
    model = build_dephasing_model(2, 1.0, 0.6)
    projector = ZenoProjector(random_state(rng, 2, SYSTEM))
    env0 = random_state(rng, 2, ENVIRONMENT)
    values = [
        survival_probability_exact(model, projector, env0, ZenoSchedule(10**6, tau))
        for tau in (1e-7, 1e-4, 0.3)
    ]
    assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in values)
    assert values[0] > 0.999  # total time 0.1, deep in the Zeno regime
    assert values[2] == 0.0  # log P is below -1e4: no double is that small


def no_loop_kernel(*args):
    raise AssertionError("collapse loop kernel called")


def test_closed_form_dispatch_never_runs_the_loop(monkeypatch):
    """Dilations diagonal in Z_S x X_E take the closed form, so they never
    evolve the register; any other rotation list reaches the collapse
    loop."""
    monkeypatch.setattr(zeno, "_rotated_by", no_loop_kernel)
    schedule = ZenoSchedule(50, 0.1)
    block = build_dephasing_model(2, 1.0, 1.0)
    for model in (block, interleaved_model(2, 1.0, 1.0), swapped_model()):
        p = survival_probability_exact(
            model, ZenoProjector(ghz_state(2)), zero_environment(2), schedule
        )
        assert 0.0 < p < 1.0
    mixed = DilatedEvolution(
        (SYSTEM, ENVIRONMENT), ((1.0, PauliTerm(1.0, "ZI")), (1.0, PauliTerm(1.0, "XX")))
    )
    with pytest.raises(AssertionError, match="loop kernel called"):
        survival_probability_exact(
            mixed, ZenoProjector(plus_state(1)), zero_environment(1), schedule
        )


def paired_model(labels, partner, omega, gamma):
    """Z_a at rate omega[a] on each system qubit a and, unless partner[a]
    is None, Z_a X_b at rate gamma[a] with b = partner[a].  Qubits are
    counted within their subsystem, so any label order works."""
    sys_pos = [i for i, l in enumerate(labels) if l is SYSTEM]
    env_pos = [i for i, l in enumerate(labels) if l is ENVIRONMENT]
    rotations = []
    for a, b in enumerate(partner):
        chars = ["I"] * len(labels)
        chars[sys_pos[a]] = "Z"
        rotations.append((float(omega[a]), PauliTerm(1.0, "".join(chars))))
        if b is not None:
            chars[env_pos[b]] = "X"
            rotations.append((float(gamma[a]), PauliTerm(1.0, "".join(chars))))
    return DilatedEvolution(tuple(labels), rotations)


def survival_to_40_digits(model, projector, env0, schedule):
    """P_m = sum_x p(x) |k(x)|^(2m) at 40 digits, straight from the
    rotation list: Phi[s, x] = sum_r rate_r z_r(s) x_r(x) and
    k(x) = sum_s |psi0(s)|^2 exp(-i tau Phi[s, x] / 2)."""
    mpmath = pytest.importorskip("mpmath")
    sys_pos = [i for i, l in enumerate(model.labels) if l is SYSTEM]
    env_pos = [i for i, l in enumerate(model.labels) if l is ENVIRONMENT]

    def signs(bits, positions, factors, char):
        chars = (factors[i] for i in positions)
        return math.prod(1 - 2 * b for b, c in zip(bits, chars) if c == char)

    s_basis = list(itertools.product((0, 1), repeat=len(sys_pos)))
    e_basis = list(itertools.product((0, 1), repeat=len(env_pos)))
    with mpmath.workdps(40):
        weights = [abs(mpmath.mpc(a)) ** 2 for a in projector.psi0.amplitudes]
        half_tau = mpmath.mpf(schedule.tau) / 2
        total = mpmath.mpf(0)
        for x in e_basis:
            # <x|e> = 2^(-N/2) (-1)^(x . e), with bit 0 for |+>
            overlap = sum(
                mpmath.mpc(a) * (-1) ** sum(xi & ei for xi, ei in zip(x, e))
                for a, e in zip(env0.amplitudes, e_basis)
            )
            k = 0
            for w, s in zip(weights, s_basis):
                phi = sum(
                    mpmath.mpf(rate)
                    * signs(s, sys_pos, p.factors, "Z")
                    * signs(x, env_pos, p.factors, "X")
                    for rate, p in model.rotations
                )
                k += w * mpmath.expj(-half_tau * phi)
            total += abs(overlap) ** 2 / 2 ** len(env_pos) * abs(k) ** (2 * schedule.m)
        return total


def test_closed_form_within_a_few_ulp_of_40_digits():
    """At m = 1000 the loop drifts by about m x eps; the closed form must
    hold its relative accuracy, on random rates, label orders, pairings,
    system and environment states for N <= 3 and tau in [0.02, 0.3].  The
    pair form reads 5.6e-16 here, the 2^N_S x 2^N_E phase array before it
    5.2e-15."""
    rng = np.random.default_rng(40)
    worst = 0.0
    for case in range(60):
        n = 1 + case % 3
        labels = tuple(rng.permutation([SYSTEM] * n + [ENVIRONMENT] * n))
        model = paired_model(labels, rng.permutation(n), *rng.uniform(0.5, 1.5, (2, n)))
        projector = ZenoProjector(random_state(rng, n, SYSTEM))
        env0 = random_state(rng, n, ENVIRONMENT)
        schedule = ZenoSchedule(1000, float(rng.uniform(0.02, 0.3)))
        exact = survival_to_40_digits(model, projector, env0, schedule)
        closed = survival_probability_exact(model, projector, env0, schedule)
        worst = max(worst, float(abs((closed - exact) / exact)))
    assert worst <= 2e-15


@pytest.mark.parametrize("n", [12, 14])
def test_closed_form_factorises_on_large_product_inputs(n):
    """On product inputs P is the product of one-pair survivals.  The
    closed form holds a few 2^n arrays: under 4 MiB at N = 12, where a
    2^N_S x 2^N_E phase array took 537 MB."""
    rng = np.random.default_rng(n)
    omega0, gamma = rng.uniform(0.5, 1.5, 2)
    schedule = ZenoSchedule(100, 0.05)
    systems = [random_state(rng, 1, SYSTEM) for _ in range(n)]
    envs = [random_state(rng, 1, ENVIRONMENT) for _ in range(n)]
    one_pair = build_dephasing_model(1, omega0, gamma)
    expected = math.prod(
        survival_probability_exact(one_pair, ZenoProjector(s), e, schedule)
        for s, e in zip(systems, envs)
    )

    def product(states, label):
        amps = functools.reduce(np.kron, [v.amplitudes for v in states])
        return StateVector(amps, (label,) * n)

    projector, env0 = ZenoProjector(product(systems, SYSTEM)), product(envs, ENVIRONMENT)
    model = build_dephasing_model(n, omega0, gamma)
    tracemalloc.start()
    try:
        p = survival_probability_exact(model, projector, env0, schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p == pytest.approx(expected, rel=1e-12, abs=0)
    assert peak < 2 ** (n + 10)  # 4 MiB at N = 12


@pytest.mark.parametrize(
    "labels, strings",
    [
        ((SYSTEM, SYSTEM, ENVIRONMENT), ("ZII", "ZZX")),  # a Z_S Z_S X_E parity
        ((SYSTEM, ENVIRONMENT, ENVIRONMENT), ("ZII", "ZXX")),  # a Z_S X_E X_E parity
        ((SYSTEM, SYSTEM, ENVIRONMENT), ("ZIX", "IZX")),  # two partners for one qubit
    ],
)
def test_lists_outside_the_pair_form_reach_the_loop(monkeypatch, labels, strings):
    calls = []
    real_kernel = zeno._rotated_by

    def counted_kernel(*args):
        calls.append(args)
        return real_kernel(*args)

    monkeypatch.setattr(zeno, "_rotated_by", counted_kernel)
    rng = np.random.default_rng(9)
    model = DilatedEvolution(labels, [(1.0, PauliTerm(1.0, s)) for s in strings])
    assert model._pair_form is None
    projector = ZenoProjector(random_state(rng, labels.count(SYSTEM), SYSTEM))
    env0 = random_state(rng, labels.count(ENVIRONMENT), ENVIRONMENT)
    p = survival_probability_exact(model, projector, env0, ZenoSchedule(5, 0.2))
    assert calls and 0.0 < p < 1.0


@pytest.mark.parametrize(
    "labels, strings",
    [
        ((SYSTEM, SYSTEM, ENVIRONMENT), ("ZII", "ZIX", "IZI")),  # system 1 uncoupled
        ((ENVIRONMENT, SYSTEM, ENVIRONMENT), ("IZI", "XZI")),  # environment 1 uncoupled
        ((SYSTEM, ENVIRONMENT), ("ZI", "ZX", "IX")),  # an environment-only X rotation
    ],
)
def test_partial_pairings_stay_on_the_closed_form(monkeypatch, labels, strings):
    rng = np.random.default_rng(11)
    model = DilatedEvolution(
        labels, [(float(rng.uniform(0.5, 1.5)), PauliTerm(1.0, s)) for s in strings]
    )
    projector = ZenoProjector(random_state(rng, labels.count(SYSTEM), SYSTEM))
    env0 = random_state(rng, labels.count(ENVIRONMENT), ENVIRONMENT)
    for m in (1, 100):
        args = (model, projector, env0, ZenoSchedule(m, 0.1))
        loop = _survival_by_collapse(*args)
        with monkeypatch.context() as patch:
            patch.setattr(zeno, "_rotated_by", no_loop_kernel)
            closed = survival_probability_exact(*args)
        assert closed == pytest.approx(loop, rel=1e-12, abs=0)


def test_pair_form_reads_rates_pairs_and_lone_axes():
    """System 0 coupled to environment 2, system 1 uncoupled: theta holds
    omega +- gamma, one kernel row for the uncoupled qubit, and
    environment 0 and 1 are lone."""
    labels = (ENVIRONMENT, SYSTEM, SYSTEM, ENVIRONMENT, ENVIRONMENT)
    form = paired_model(labels, [2, None], [0.25, 0.5], [0.75, 0.0])._pair_form
    np.testing.assert_array_equal(form.theta, [[1.0, -0.5], [0.5, 0.5]])
    assert form.theta.dtype == np.longdouble
    assert (form.rows, form.order, form.lone) == ((2, 1), (0,), (0, 1))


def test_pair_form_is_read_once_per_evolution(monkeypatch):
    """Repeated survival calls on one evolution read its rotation list
    once; a new evolution reads its own."""
    reads = []
    real_read = channels._read_pair_form

    def counted_read(u):
        reads.append(u)
        return real_read(u)

    monkeypatch.setattr(channels, "_read_pair_form", counted_read)
    model, projector, env0 = one_pair_setup()
    values = {
        survival_probability_exact(model, projector, env0, ZenoSchedule(m, 0.2))
        for m in (1, 5, 5, 40)
    }
    assert reads == [model] and len(values) == 3
    other = build_dephasing_model(1, 1.0, 1.0)
    survival_probability_exact(other, projector, env0, ZenoSchedule(5, 0.2))
    assert reads == [model, other]


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(st.data())
def test_closed_form_matches_collapse_in_any_order_and_pairing(data):
    n = data.draw(st.integers(1, 3))
    labels = data.draw(st.permutations((SYSTEM,) * n + (ENVIRONMENT,) * n))
    partner = data.draw(st.permutations(range(n)))
    rates = data.draw(st.lists(st.floats(0.0, 2.0), min_size=2 * n, max_size=2 * n))
    model = paired_model(labels, partner, rates[:n], rates[n:])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    projector = ZenoProjector(random_state(rng, n, SYSTEM))
    env0 = random_state(rng, n, ENVIRONMENT)
    m, tau = data.draw(st.integers(1, 50)), data.draw(st.floats(0.01, 1.0))
    assert_closed_form_matches_collapse(model, projector, env0, ZenoSchedule(m, tau))


@pytest.mark.parametrize("m, expected", [(500, 1.9408186273647447e-57), (3000, None)])
def test_collapse_loop_refuses_an_underflowed_product(m, expected):
    """Rotations ZI then XX fall outside the closed form.  At tau = 1 each
    measurement keeps a weight near 0.77, so at m = 500 the loop returns
    its usual value, but by m = 3000 the product leaves the normal doubles
    at measurement 2713 (where it used to stick at 1e-323) and raises."""
    rotations = ((1.0, PauliTerm(1.0, "ZI")), (1.0, PauliTerm(1.0, "XX")))
    mixed = DilatedEvolution((SYSTEM, ENVIRONMENT), rotations)
    projector = ZenoProjector(plus_state(1))
    args = (mixed, projector, zero_environment(1), ZenoSchedule(m, 1.0))
    if expected is None:
        with pytest.raises(ValueError, match="underflowed at measurement 2713 of 3000"):
            survival_probability_exact(*args)
    else:
        assert survival_probability_exact(*args) == pytest.approx(expected, rel=1e-12)


def test_collapse_loop_builds_no_state_per_measurement(monkeypatch):
    """The loop carries the environment vector as an array: the
    ``StateVector``s it builds do not grow with m, and each of the m steps
    still evolves all 2^n amplitudes of the register by the whole rotation
    list, at the angles rate * tau."""
    model = build_dephasing_model(2, 1.0, 0.7)
    projector, env0 = ZenoProjector(ghz_state(2)), zero_environment(2)
    built, evolved = [], []
    real_init, real_kernel = StateVector.__post_init__, zeno._rotated_by

    def counted_init(self):
        built.append(self)
        real_init(self)

    def counted_kernel(rotations, amps):
        evolved.append((rotations, amps.shape))
        return real_kernel(rotations, amps)

    monkeypatch.setattr(StateVector, "__post_init__", counted_init)
    monkeypatch.setattr(zeno, "_rotated_by", counted_kernel)
    # The block-first register needs no permutation of its strings.
    expected = channels._rotations_at(model, 0.2)
    counts = []
    for m in (1, 50):
        built.clear()
        evolved.clear()
        _survival_by_collapse(model, projector, env0, ZenoSchedule(m, 0.2))
        counts.append(len(built))
        assert [shape for _, shape in evolved] == [(2**4,)] * m
        assert all(same_rotations(rotations, expected) for rotations, _ in evolved)
    assert counts[0] == counts[1]


def same_rotations(a, b) -> bool:
    """Whether two rotation lists of ``paulis._rotations`` hold equal
    entries: their plans, cosines and flip factors, whose arrays are
    compared by value."""

    def fields(rotations):
        return [x for plan, cos, factor in rotations for x in (*plan, cos, factor)]

    return len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(fields(a), fields(b))
    )


def test_collapse_loop_returns_zero_when_a_step_captures_nothing(monkeypatch):
    """A step whose captured weight is below 1e-300 ends the run with 0.0,
    whatever the weights before it."""
    monkeypatch.setattr(zeno, "_rotated_by", lambda rotations, amps: 0.0 * amps)
    model, projector, env0 = one_pair_setup()
    assert _survival_by_collapse(model, projector, env0, ZenoSchedule(3, 0.1)) == 0.0


def joined_collapse(u, projector, env0, schedule):
    """The collapse loop's earlier step, kept as its reference: each step
    joins psi0 x v into register order, evolves the register with
    ``_evolved_amplitudes``, splits it back into (system, environment)
    axes and contracts the system with psi0*."""
    psi0 = projector.psi0.amplitudes
    split = system_env_matrix(tensor_state(projector.psi0, env0))
    probability = 1.0
    for _ in range(schedule.m):
        amps = _evolved_amplitudes(u, _system_env_join(split, u.labels), schedule.tau)
        env_vec = psi0.conj() @ _system_env_split(amps, u.labels)
        weight = float(np.vdot(env_vec, env_vec).real)
        if weight < 1e-300:
            return 0.0
        probability *= min(weight, 1.0)
        split = np.outer(psi0, env_vec) / math.sqrt(weight)
    return probability


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.data())
def test_collapse_loop_equals_the_joined_step_to_the_bit(data):
    """On random rotation lists in any label order, commuting or not and
    mostly outside the pair form, the system-first loop gives the joined
    step's survival bit for bit wherever the joined step contracted psi0*
    with a C-ordered split.  Where the split was a strided view of the
    register (the system qubits after the environment's), BLAS summed that
    contraction in another order, a few ulps a step."""
    n_sys, n_env = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    labels = tuple(data.draw(st.permutations((SYSTEM,) * n_sys + (ENVIRONMENT,) * n_env)))
    strings = data.draw(
        st.lists(st.text("IXYZ", min_size=len(labels), max_size=len(labels)), max_size=6)
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    model = DilatedEvolution(
        labels, [(float(rng.uniform(-2.0, 2.0)), PauliTerm(1.0, s)) for s in strings]
    )
    projector = ZenoProjector(random_state(rng, n_sys, SYSTEM))
    env0 = random_state(rng, n_env, ENVIRONMENT)
    schedule = ZenoSchedule(data.draw(st.integers(1, 30)), data.draw(st.floats(0.01, 1.0)))
    loop = _survival_by_collapse(model, projector, env0, schedule)
    reference = joined_collapse(model, projector, env0, schedule)
    if _system_env_split(np.empty(2 ** len(labels)), labels).flags.c_contiguous:
        assert loop == reference
    else:
        assert loop == pytest.approx(reference, rel=1e-15 * schedule.m, abs=0)


@pytest.mark.parametrize("route", [survival_probability_exact, _survival_by_collapse])
def test_register_refusals_on_both_routes(route):
    """The closed form and the collapse loop refuse through one check: an
    environment state on system labels, an unnormalised one, and a
    projector or environment register that does not match the evolution."""
    model, projector, env0 = one_pair_setup()
    schedule = ZenoSchedule(2, 0.1)
    with pytest.raises(ValueError, match="environment qubits only"):
        route(model, projector, plus_state(1), schedule)
    loose = StateVector(2 * env0.amplitudes, env0.labels)
    with pytest.raises(ValueError, match="environment state must be normalized"):
        route(model, projector, loose, schedule)
    for wrong in ((ZenoProjector(ghz_state(2)), env0), (projector, zero_environment(2))):
        with pytest.raises(DimensionMismatchError, match="does not match the evolution"):
            route(model, *wrong, schedule)


def test_zeno_convergence_in_measurement_number():
    """At fixed total time the survival probability climbs toward one as
    the measurements get denser."""
    model, projector, env0 = one_pair_setup()
    total = 1.0
    values = [
        survival_probability_exact(
            model, projector, env0, ZenoSchedule(m, total / m)
        )
        for m in (1, 2, 4, 8, 16, 32, 64, 128, 256)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] >= 0.98


# ---- conditional state ----


def test_conditional_state_without_evolution():
    model, projector, env0 = one_pair_setup(0.0, 0.0)
    rho = conditional_state(model, projector, env0, ZenoSchedule(3, 0.5))
    expected = np.full((2, 2), 0.5)
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-13)


def test_conditional_state_commuting_case():
    model = build_dephasing_model(1, 1.0, 1.0)
    projector = ZenoProjector(basis_state(0, (SYSTEM,)))
    rho = conditional_state(model, projector, zero_environment(1), ZenoSchedule(5, 0.4))
    np.testing.assert_allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-13)


def test_conditional_state_high_fidelity_in_zeno_regime():
    model, projector, env0 = one_pair_setup()
    rho = conditional_state(model, projector, env0, ZenoSchedule(50, 0.01))
    fidelity = float(
        np.real(plus_state(1).amplitudes.conj() @ rho.matrix @ plus_state(1).amplitudes)
    )
    assert fidelity >= 0.99
    assert rho.trace.real == pytest.approx(1.0, abs=1e-12)


def test_conditional_state_unit_trace_whenever_probability_survives():
    model, projector, env0 = one_pair_setup(1.0, 0.4)
    for m, tau in ((3, 0.7), (20, 0.05)):
        schedule = ZenoSchedule(m, tau)
        p = survival_probability_exact(model, projector, env0, schedule)
        if p > 1e-10:
            rho = conditional_state(model, projector, env0, schedule)
            assert rho.trace.real == pytest.approx(1.0, abs=1e-12)


def test_conditional_state_raises_on_vanishing_probability():
    # gamma = 0 and omega0 tau = pi sends |+> to |-> exactly
    model, projector, env0 = one_pair_setup(1.0, 0.0)
    with pytest.raises(ValueError, match="too small"):
        conditional_state(model, projector, env0, ZenoSchedule(1, np.pi))


# ---- zeno hamiltonian ----


def test_zeno_hamiltonian_unchanged_for_plus_projector():
    """<+|Z|+> = 0 kills the filtered part, so the generator passes through
    as the same Pauli sum."""
    model, projector, _ = one_pair_setup()
    h_se = generator(model)
    h_hat = zeno_hamiltonian(h_se, projector, model.labels)
    assert h_hat is h_se


def test_zeno_hamiltonian_identity_generator():
    labels = (SYSTEM, ENVIRONMENT)
    h_se = OperatorSum.from_term(1.0, "II")
    projector = ZenoProjector(plus_state(1))
    h_hat = zeno_hamiltonian(h_se, projector, labels)
    assert isinstance(h_hat, OperatorSum)
    # I - M: annihilates psi0 x anything
    psi_full = tensor_state(plus_state(1), zero_environment(1))
    assert variance(h_hat, psi_full) == pytest.approx(0.0, abs=1e-12)
    proj = np.kron(np.full((2, 2), 0.5), np.eye(2))
    np.testing.assert_allclose(to_dense(h_hat).matrix, np.eye(4) - proj, atol=1e-12)


def test_zeno_hamiltonian_matches_dense_formula():
    rng = np.random.default_rng(67)
    labels = (SYSTEM, ENVIRONMENT)
    terms = []
    for factors in ("ZI", "XX", "YZ", "ZZ", "XI"):
        terms.append(PauliTerm(rng.normal(), factors))
    h_se = OperatorSum(terms)
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi0 = StateVector(amps / np.linalg.norm(amps), (SYSTEM,))
    projector = ZenoProjector(psi0)
    h_hat = zeno_hamiltonian(h_se, projector, labels)
    assert isinstance(h_hat, OperatorSum)
    h = to_dense(h_se).matrix
    m = np.kron(np.outer(psi0.amplitudes, psi0.amplitudes.conj()), np.eye(2))
    np.testing.assert_allclose(to_dense(h_hat).matrix, h - m @ h @ m, atol=1e-12)


def dense_zeno_projector(psi0, labels):
    """|psi0><psi0| x I_env as a matrix on a register in any label order,
    built by moving the qubits of the block matrix into register order."""
    n = len(labels)
    block = np.kron(
        np.outer(psi0.amplitudes, psi0.amplitudes.conj()),
        np.eye(2 ** labels.count(ENVIRONMENT)),
    )
    order = [p for p, l in enumerate(labels) if l is SYSTEM]
    order += [p for p, l in enumerate(labels) if l is ENVIRONMENT]
    # Axis k of the block tensor is register position order[k].
    targets = order + [n + p for p in order]
    moved = np.moveaxis(block.reshape((2,) * 2 * n), range(2 * n), targets)
    return moved.reshape(2**n, 2**n)


ZENO_ORDERS = {
    "block": (SYSTEM,) * 3 + (ENVIRONMENT,) * 2,
    "interleaved": (SYSTEM, ENVIRONMENT, SYSTEM, ENVIRONMENT, SYSTEM),
    "environment-first": (ENVIRONMENT, ENVIRONMENT, SYSTEM, SYSTEM),
    "one-system": (ENVIRONMENT, SYSTEM, ENVIRONMENT),
}


@pytest.mark.parametrize("order", ZENO_ORDERS)
@pytest.mark.parametrize("seed", range(5))
def test_pauli_zeno_hamiltonian_equals_the_dense_difference(order, seed):
    """On random Hermitian sums of random strings and random psi0 (N_S <= 3),
    the Pauli-sum H - M H M equals the dense H - M H M to 1e-12, on block,
    interleaved and environment-first label orders."""
    rng = np.random.default_rng(seed)
    labels = ZENO_ORDERS[order]
    n, n_sys = len(labels), labels.count(SYSTEM)
    strings = ("".join(rng.choice(list("IXYZ"), size=n)) for _ in range(6))
    h_se = OperatorSum([PauliTerm(rng.normal(), f) for f in strings])
    psi0 = random_state(rng, n_sys, SYSTEM)
    h_hat = zeno_hamiltonian(h_se, ZenoProjector(psi0), labels)
    assert isinstance(h_hat, OperatorSum) and h_hat.hermitian and h_hat is not h_se
    h = to_dense(h_se).matrix
    m = dense_zeno_projector(psi0, labels)
    np.testing.assert_allclose(to_dense(h_hat).matrix, h - m @ h @ m, atol=1e-12)


def test_dense_zeno_projector_on_an_interleaved_register():
    """The reference projector on (S, E, S) is the sum over e of
    |psi0 with e placed between its qubits> <same|."""
    rng = np.random.default_rng(4)
    psi0 = random_state(rng, 2, SYSTEM)
    expected = np.zeros((8, 8), dtype=complex)
    for e in np.eye(2):
        ket = np.einsum("ac,f->afc", psi0.amplitudes.reshape(2, 2), e).reshape(-1)
        expected += np.outer(ket, ket.conj())
    labels = (SYSTEM, ENVIRONMENT, SYSTEM)
    np.testing.assert_allclose(dense_zeno_projector(psi0, labels), expected, atol=1e-15)


def test_zeno_hamiltonian_refuses_a_register_above_the_dense_cap():
    """With a filtered part (psi0 = |0> has <Z> = 1), the Pauli form is
    refused at 13 qubits, as the dense form was; with none (psi0 = |+>),
    H passes through at any size."""
    labels = (SYSTEM,) + (ENVIRONMENT,) * 12
    h_se = OperatorSum.from_term(0.5, "Z" + "X" * 12)
    with pytest.raises(DenseCapError):
        zeno_hamiltonian(h_se, ZenoProjector(basis_state(0, (SYSTEM,))), labels)
    assert zeno_hamiltonian(h_se, ZenoProjector(plus_state(1)), labels) is h_se


# ---- quadratic expansion ----


def test_quadratic_survival_on_eigenstate():
    h_hat = OperatorSum.from_term(1.0, "ZI")
    psi_full = tensor_state(basis_state(0, (SYSTEM,)), zero_environment(1))
    assert survival_probability_quadratic(
        h_hat, psi_full, ZenoSchedule(10, 0.1)
    ) == pytest.approx(1.0)


def test_quadratic_survival_uses_generator_variance():
    model, projector, env0 = one_pair_setup()
    h_hat = zeno_hamiltonian(generator(model), projector, model.labels)
    psi_full = tensor_state(projector.psi0, env0)
    m, tau = 12, 0.05
    value = survival_probability_quadratic(h_hat, psi_full, ZenoSchedule(m, tau))
    assert value == pytest.approx(1 - m * 0.5 * tau**2, rel=1e-12)


def test_quadratic_survival_goes_negative_unclamped():
    model, projector, env0 = one_pair_setup()
    h_hat = generator(model)
    psi_full = tensor_state(projector.psi0, env0)
    value = survival_probability_quadratic(h_hat, psi_full, ZenoSchedule(100, 1.0))
    assert value < 0.0


def assert_quadratic_error_scales(model, projector, env0):
    """|P_exact - P_quad| / (m tau^3) at m = 20 stays bounded as tau halves,
    with P_quad built on the Zeno Hamiltonian of the model's generator."""
    h_hat = zeno_hamiltonian(generator(model), projector, model.labels)
    psi_full = tensor_state(projector.psi0, env0)
    m = 20
    ratios = []
    for tau in (1e-2, 5e-3, 2.5e-3):
        schedule = ZenoSchedule(m, tau)
        exact = survival_probability_exact(model, projector, env0, schedule)
        quad = survival_probability_quadratic(h_hat, psi_full, schedule)
        ratios.append(abs(exact - quad) / (m * tau**3))
    assert ratios[1] <= ratios[0] * 1.1 + 1e-12
    assert ratios[2] <= ratios[1] * 1.1 + 1e-12


def test_quadratic_error_scales_as_m_tau_cubed():
    """|P_exact - P_quad| / (m tau^3) stays bounded as tau halves."""
    assert_quadratic_error_scales(*one_pair_setup())


@pytest.mark.parametrize("seed", range(6))
def test_quadratic_error_scales_off_the_equator(seed):
    """On a random psi0 off the equator (<Z> != 0), where the Zeno
    Hamiltonian has a nonzero filtered part, the quadratic survival holds
    the same bound as tau halves, on one and two pairs."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 2
    model = build_dephasing_model(n, *rng.uniform(0.5, 1.5, size=2))
    projector = ZenoProjector(random_state(rng, n, SYSTEM))
    h_se = generator(model)
    assert zeno_hamiltonian(h_se, projector, model.labels) is not h_se
    assert_quadratic_error_scales(model, projector, zero_environment(n))


# ---- zeno time ----


def test_zeno_time_arithmetic():
    assert zeno_time(100, 4.0) == pytest.approx(0.1)
    assert zeno_time(1, 4 * 0.5) == pytest.approx(np.sqrt(2.0))


def test_zeno_time_validation():
    for m in (0, 2.5, True, 10**400, 2**53 + 1, 10**30):
        with pytest.raises(ValueError):
            zeno_time(m, 1.0)
    with pytest.raises(ValueError):
        zeno_time(10, 0.0)
    assert zeno_time(100.0, 4.0) == zeno_time(100, 4.0)
    assert zeno_time(2**53, 1.0) == 2.0 / math.sqrt(2.0**53)


def test_zeno_time_consistent_with_quadratic_form():
    """P_quad = 1 - (tau / tau_qz)^2 at m measurements when tau_qz is built
    from 4 Var(H)."""
    model, projector, env0 = one_pair_setup()
    h_hat = generator(model)
    psi_full = tensor_state(projector.psi0, env0)
    m, tau = 25, 0.02
    var = variance(h_hat, psi_full)
    tau_qz = zeno_time(m, 4 * var)
    quad = survival_probability_quadratic(h_hat, psi_full, ZenoSchedule(m, tau))
    assert quad == pytest.approx(1 - (tau / tau_qz) ** 2, rel=1e-12)
