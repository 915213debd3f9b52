import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import PerArrayAdam, max_gradcheck_error, random_network
from piece import netcore as nc


def dense(weight, bias=None):
    w = np.asarray(weight, dtype=float)
    return nc.Dense(w, np.zeros(w.shape[0]) if bias is None else np.asarray(bias, float))


def single(layer, x, **kw):
    net = nc.Network([dense(np.eye(len(np.atleast_1d(x)))), layer], role="generator")
    return nc.forward(net, x, **kw)


class TestForward:
    def test_identity_dense(self):
        net = nc.Network([dense(np.eye(2))], role="generator")
        out = nc.forward(net, [1.0, 2.0]).output
        assert np.array_equal(out, [1.0, 2.0])

    def test_relu_definition(self):
        out = single(nc.ReLU(), [-1.0, 2.0]).output
        assert np.array_equal(out, [0.0, 2.0])

    def test_softmax_symmetry(self):
        out = single(nc.SoftMax(), [0.0, 0.0]).output
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_sigmoid_bits_match_two_branch_formula(self):
        rng = np.random.default_rng(11)
        x = np.concatenate(
            [rng.normal(scale=sc, size=300) for sc in (1.0, 10.0, 300.0)]
            + [[0.0, -0.0, 745.0, -745.0, np.inf, -np.inf]]
        ).reshape(-1, 3)
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        net = nc.Network([nc.Sigmoid(), dense(np.eye(3))], role="generator")
        out = nc.forward(net, x).outputs[0]
        assert out.tobytes() == ref.tobytes()

    def test_shape_mismatch_names_layer(self):
        net = nc.Network([dense(np.ones((2, 3)))], role="generator")
        with pytest.raises(nc.DimensionError, match="dense"):
            nc.forward(net, [1.0, 2.0])

    def test_batched_forward_matches_vector(self):
        rng = np.random.default_rng(0)
        net = nc.Network(
            [dense(rng.normal(size=(3, 4)), rng.normal(size=3)), nc.Sigmoid()],
            role="generator",
        )
        xs = rng.normal(size=(5, 4))
        batched = nc.forward(net, xs).output
        rows = np.stack([nc.forward(net, x).output for x in xs])
        # blas accumulation order differs between the two shapes
        assert np.allclose(batched, rows, rtol=1e-12, atol=1e-14)

    def test_train_mode_needs_seed(self):
        net = nc.Network([dense(np.eye(2)), nc.Dropout(0.5)], role="generator")
        with pytest.raises(nc.DimensionError, match="rng_seed"):
            nc.forward(net, [1.0, 1.0], mode="train")

    def test_eval_ignores_dropout(self):
        net = nc.Network([dense(np.eye(2)), nc.Dropout(0.9)], role="generator")
        out = nc.forward(net, [3.0, -1.0]).output
        assert np.array_equal(out, [3.0, -1.0])

    def test_forward_is_pure(self):
        net = nc.Network([dense(np.eye(3)), nc.Dropout(0.4)], role="generator")
        a = nc.forward(net, [1.0, 2.0, 3.0], mode="train", rng_seed=5).output
        b = nc.forward(net, [1.0, 2.0, 3.0], mode="train", rng_seed=5).output
        assert np.array_equal(a, b)

    def test_nonfinite_flagged(self):
        net = nc.Network([dense([[1e150], [1e150]]), dense(np.full((1, 2), 1e160))],
                         role="generator")
        with pytest.raises(nc.NumericsError, match="layer 1"):
            nc.forward(net, [1e5])


def first_nonfinite_layer(net, x, **kw):
    """Oracle: the first layer whose output holds a non-finite value, read
    off an unchecked pass (None if there is none)."""
    trace = nc.forward(net, x, check_finite=False, **kw)
    for i, out in enumerate(trace.outputs):
        if not np.all(np.isfinite(out)):
            return i
    return None


def assert_flags_first_nonfinite(net, x, **kw):
    first = first_nonfinite_layer(net, x, **kw)
    if first is None:
        nc.forward(net, x, **kw)
    else:
        kind = net.layers[first].kind
        with pytest.raises(nc.NumericsError, match=rf"layer {first} \({kind}\)"):
            nc.forward(net, x, **kw)


class TestFiniteChecks:
    """NumericsError names the first layer whose output is non-finite, as a
    check after every layer would, although not every layer is checked."""

    def test_overflow_hidden_by_relu(self):
        # the dense output is -inf, the relu turns it into 0, so an
        # output-only check would see nothing
        net = nc.Network([dense([[1e200]]), nc.ReLU(), dense([[1.0]])], role="generator")
        assert np.isfinite(nc.forward(net, [-1e200], check_finite=False).output).all()
        assert first_nonfinite_layer(net, [-1e200]) == 0
        with pytest.raises(nc.NumericsError, match=r"layer 0 \(dense\)"):
            nc.forward(net, [-1e200])

    @pytest.mark.parametrize("first", ["dense", "relu"])
    def test_nan_input(self, first):
        layers = [dense(np.eye(2)), nc.ReLU()]
        if first == "relu":
            layers.reverse()
        net = nc.Network(layers, role="generator")
        with pytest.raises(nc.NumericsError, match=rf"layer 0 \({first}\)"):
            nc.forward(net, [np.nan, 1.0])

    def test_minus_inf_absorbed_by_leading_relu(self):
        net = nc.Network([nc.ReLU(), dense(np.eye(2))], role="generator")
        assert first_nonfinite_layer(net, [-np.inf, 1.0]) is None
        assert np.array_equal(nc.forward(net, [-np.inf, 1.0]).output, [0.0, 1.0])

    def test_train_dropout_overflow(self):
        net = nc.Network([dense([[1.7e308]]), nc.Dropout(0.5)], role="generator")
        x = np.ones((16, 1))
        assert np.isfinite(nc.forward(net, x).output).all()
        with pytest.raises(nc.NumericsError, match=r"layer 1 \(dropout\)"):
            nc.forward(net, x, mode="train", rng_seed=0)

    @given(
        kinds=st.lists(st.sampled_from(["dense", "relu", "dropout", "sigmoid"]),
                       min_size=1, max_size=5),
        softmax=st.booleans(),
        width=st.integers(1, 3),
        data=st.data(),
        train=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_layer_as_checking_every_layer(self, kinds, softmax, width, data, train):
        assume("dense" in kinds)
        scale = st.sampled_from([0.0, 1.0, -1.0, 1e150, -1e150, 1e308, -1e308])
        layers = []
        for kind in kinds:
            if kind == "dense":
                w = data.draw(st.lists(scale, min_size=width * width, max_size=width * width))
                b = data.draw(st.lists(scale, min_size=width, max_size=width))
                layers.append(nc.Dense(np.reshape(w, (width, width)), np.array(b)))
            elif kind == "dropout":
                layers.append(nc.Dropout(0.5))
            else:
                layers.append({"relu": nc.ReLU, "sigmoid": nc.Sigmoid}[kind]())
        if softmax:
            layers.append(nc.SoftMax())
        net = nc.Network(layers, role="generator")
        x = data.draw(st.lists(
            st.sampled_from([0.0, 2.0, -2.0, 1e200, -1e200, np.inf, -np.inf, np.nan]),
            min_size=width, max_size=width,
        ))
        kw = {"mode": "train", "rng_seed": 1} if train else {}
        assert_flags_first_nonfinite(net, x, **kw)


class TestBackward:
    def test_dense_adjoint(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        net = nc.Network([nc.Dense(w, np.zeros(3))], role="generator")
        trace = nc.forward(net, [1.0, 1.0])
        g = np.array([1.0, 0.5, -1.0])
        in_grad = nc.backward(net, trace, g)
        assert np.allclose(in_grad, w.T @ g)

    def test_relu_subgradient_zero_at_zero(self):
        net = nc.Network([dense(np.eye(2)), nc.ReLU()], role="generator")
        trace = nc.forward(net, [0.0, 1.0])
        in_grad = nc.backward(net, trace, [1.0, 1.0])
        assert in_grad[0] == 0.0 and in_grad[1] == 1.0

    def test_dropout_mask_reused(self):
        net = nc.Network([dense(np.eye(4)), nc.Dropout(0.5)], role="generator")
        trace = nc.forward(net, [1.0, 1.0, 1.0, 1.0], mode="train", rng_seed=3)
        in_grad = nc.backward(net, trace, np.ones(4))
        assert np.array_equal(in_grad, trace.output)  # same mask, same scale

    def test_trace_mismatch(self):
        net_a = nc.Network([dense(np.eye(2))], role="generator")
        net_b = nc.Network([dense(np.eye(2)), nc.ReLU()], role="generator")
        trace = nc.forward(net_a, [1.0, 2.0])
        with pytest.raises(nc.TraceMismatchError):
            nc.backward(net_b, trace, [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_gradcheck_random_networks(self, seed):
        assert max_gradcheck_error(seed) < 1e-4

    @pytest.mark.parametrize("rows", [1, 8])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("seed", range(5))
    def test_input_only_matches_parameter_pass(self, seed, mode, rows):
        # random_network holds dense, relu, dropout, sigmoid and softmax. The
        # two passes run one recurrence: with an identity dense layer put in
        # front, the parameter pass gives that layer, bit for bit, what the
        # input pass gives the network's input, and the network's own
        # parameters what its parameter pass gives them
        net, x, drop_seed = random_network(seed)
        front = nc.Network([dense(np.eye(len(x))), *net.layers], role=net.role)
        rng = np.random.default_rng(seed + 500)
        xs = x if rows == 1 else rng.normal(size=(rows, len(x)))
        trace = nc.forward(net, xs, mode=mode, rng_seed=drop_seed)
        g = rng.normal(size=np.shape(trace.output))
        only = nc.backward(net, trace, g)
        own = nc.backward_params(net, trace, g)
        front_trace = nc.forward(front, xs, mode=mode, rng_seed=drop_seed)
        full = nc.backward_params(front, front_trace, g)
        assert only.shape == np.shape(xs)
        assert own.shape == nc.bind_parameters(net).shape
        d = len(x)
        only_rows, xs_rows = np.atleast_2d(only), np.atleast_2d(xs)
        assert np.array_equal(full[: d * d].reshape(d, d), only_rows.T @ xs_rows)
        assert np.array_equal(full[d * d : d * d + d], only_rows.sum(axis=0))
        assert np.array_equal(full[d * d + d :], own)


def textbook_adam(param, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Kingma & Ba's Adam written out on fresh arrays, step by step."""
    m = v = np.zeros_like(param)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    return param, m, v


def classifier_with_dropout(seed: int) -> nc.Network:
    rng = np.random.default_rng(seed)
    return nc.Network(
        [dense(rng.normal(size=(6, 5)), rng.normal(size=6)), nc.ReLU(), nc.Dropout(0.3),
         dense(rng.normal(size=(4, 6)), rng.normal(size=4)), nc.ReLU(),
         dense(rng.normal(size=(3, 4)), rng.normal(size=3)), nc.SoftMax()],
        role="classifier", feature_tap=4,
    )


def autoencoder(seed: int) -> nc.Network:
    rng = np.random.default_rng(seed)
    return nc.Network(
        [dense(rng.normal(size=(4, 5)), rng.normal(size=4)), nc.ReLU(),
         dense(rng.normal(size=(2, 4)), rng.normal(size=2)),
         dense(rng.normal(size=(4, 2)), rng.normal(size=4)), nc.ReLU(),
         dense(rng.normal(size=(5, 4)), rng.normal(size=5)), nc.Sigmoid()],
        role="autoencoder", feature_tap=2,
    )


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = np.array([1.0, 2.0])
        state = nc.AdamState.init(p)
        nc.adam_step(p, np.zeros(2), state, lr=0.1)
        assert np.array_equal(p, [1.0, 2.0])
        assert state.step == 1

    def test_first_step_matches_recurrence(self):
        # oracle: evaluate the update rule by hand for a constant gradient
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        g = 1.0
        m = (1 - b1) * g / (1 - b1)
        v = (1 - b2) * g * g / (1 - b2)
        expected_delta = lr * m / (math.sqrt(v) + eps)
        p = np.array([5.0])
        nc.adam_step(p, np.array([g]), nc.AdamState.init(p), lr, b1, b2, eps)
        assert np.isclose(5.0 - p[0], expected_delta, rtol=1e-12)
        assert np.isclose(expected_delta, lr / (1 + eps), rtol=1e-9)

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(7)
        p0 = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(25)]
        want, want_m, want_v = textbook_adam(p0, grads, 0.05)
        p = p0.copy()
        state = nc.AdamState.init(p)
        for g in grads:
            nc.adam_step(p, g, state, 0.05)
        assert state.step == 25
        for got, expected in ((p, want), (state.m, want_m), (state.v, want_v)):
            assert np.array_equal(got, expected)

    def test_updates_the_given_arrays(self):
        p = np.ones((2, 2))
        state = nc.AdamState.init(p)
        m, v = state.m, state.v
        nc.adam_step(p, np.ones((2, 2)), state, 0.1)
        assert state.m is m and state.v is v
        assert not np.array_equal(p, np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        p = np.zeros((3, 2))
        with pytest.raises(nc.DimensionError, match="shape"):
            nc.adam_step(p, np.zeros(2), nc.AdamState.init(p), 0.1)

    def test_deterministic_runs(self):
        rng = np.random.default_rng(1)
        p0 = rng.normal(size=9)
        g = rng.normal(size=9)

        def run():
            p = p0.copy()
            state = nc.AdamState.init(p)
            for _ in range(25):
                nc.adam_step(p, g, state, 0.05)
            return p

        assert np.array_equal(run(), run())

    @pytest.mark.parametrize("build", [classifier_with_dropout, autoencoder])
    def test_bound_vector_step_moves_each_layer_as_per_array_adam(self, build):
        # one update of the bound vector equals one update of each weight
        # and bias on its own, bit for bit, step after step
        net = build(3)
        reference = PerArrayAdam([a.copy() for l in net.layers if l.kind == "dense"
                                  for a in (l.weight, l.bias)])
        params = nc.bind_parameters(net)
        state = nc.AdamState.init(params)
        rng = np.random.default_rng(4)
        for step in range(5):
            trace = nc.forward(net, rng.normal(size=(8, 5)), mode="train", rng_seed=step)
            grad = nc.backward_params(net, trace, rng.normal(size=trace.output.shape))
            nc.adam_step(params, grad, state, 0.01)
            sizes = np.cumsum([p.size for p in reference.params])[:-1]
            reference([g.reshape(p.shape) for g, p in zip(np.split(grad, sizes), reference.params)],
                      0.01)
        bound = [a for l in net.layers if l.kind == "dense" for a in (l.weight, l.bias)]
        assert all(np.shares_memory(a, params) for a in bound)
        assert all(np.array_equal(a, b) for a, b in zip(bound, reference.params))
        assert not np.array_equal(reference.params[0], build(3).layers[0].weight)


def _quadratic(seed, rows=3, dim=5):
    """Random convex quadratic over a (rows, dim) batch, its start point, and
    the list of points it was evaluated at. A 2-d point is one image, so
    the objective is handed no active images."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    h = a @ a.T + np.eye(dim)
    target = rng.normal(size=(rows, dim))
    calls: list = []

    def objective(z, active):
        assert active is None
        calls.append(z)
        d = z - target
        return 2.0 * d @ h, float(np.sum(d * (d @ h)))

    return objective, rng.normal(size=(rows, dim)), calls


class TestDescend:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_hand_written_adam(self, seed):
        objective, z0, _ = _quadratic(seed)
        got = [(step, z.copy(), info) for step, z, info in nc.Descent(objective, z0, 0.05, 40)]
        reference, z0_ref, _ = _quadratic(seed)
        z = z0_ref.copy()
        g, info = reference(z, None)
        want = [(0, z.copy(), info)]
        state = nc.AdamState.init(z)
        for step in range(1, 41):
            nc.adam_step(z, g, state, 0.05)
            g, info = reference(z, None)
            want.append((step, z.copy(), info))
        assert [s for s, _, _ in got] == [s for s, _, _ in want]
        assert all(np.array_equal(a, b) for (_, a, _), (_, b, _) in zip(got, want))
        assert [i for _, _, i in got] == [i for _, _, i in want]

    @pytest.mark.parametrize("max_steps", [0, 1, 7])
    def test_yields_max_steps_plus_one_points(self, max_steps):
        objective, z0, calls = _quadratic(3)
        steps = [step for step, _, _ in nc.Descent(objective, z0, 0.1, max_steps)]
        assert steps == list(range(max_steps + 1))
        assert len(calls) == max_steps + 1

    def test_caller_array_never_mutated_or_yielded(self):
        objective, z0, calls = _quadratic(4)
        saved = z0.copy()
        seen = []
        for _, z, _ in nc.Descent(objective, z0, 0.1, 20):
            assert z is not z0
            seen.append((z, z.copy()))
        assert np.array_equal(z0, saved)
        assert all(c is not z0 for c in calls)
        # a yielded point is not modified by the steps after it
        assert all(np.array_equal(z, snapshot) for z, snapshot in seen)

    def test_leaving_early_stops_evaluating(self):
        objective, z0, calls = _quadratic(5)
        for step, _, _ in nc.Descent(objective, z0, 0.1, 100):
            if step == 4:
                break
        assert len(calls) == 5


class TestImageAxis:
    """A stack (n, rows, d) gives each image the bits of its own 2-d pass."""

    @pytest.fixture(scope="class")
    def nets(self, toy_run):
        arts = toy_run["arts"]
        body, _ = nc.split_at_tap(arts.classifier)
        return {"generator": arts.generator, "classifier": arts.classifier, "features": body}

    @pytest.mark.parametrize("rows", [1, 8])
    @pytest.mark.parametrize("name", ["generator", "classifier", "features"])
    def test_batch_composition_invariance(self, nets, name, rows):
        net = nets[name]
        rng = np.random.default_rng(rows)
        xs = rng.random((5, rows, net.input_dim))
        gs = rng.normal(size=(5, rows, net.output_dim))
        stacked = nc.forward(net, xs)
        g_stacked = nc.backward(net, stacked, gs)
        for i in range(len(xs)):
            alone = nc.forward(net, xs[i])
            assert all(
                np.array_equal(s[i], a) for s, a in zip(stacked.outputs, alone.outputs)
            )
            assert np.array_equal(g_stacked[i], nc.backward(net, alone, gs[i]))

    def test_chained_network_equals_passes_in_turn(self, nets):
        # visualize runs the generator and the classifier's body as one network
        first, second = nets["generator"], nets["features"]
        chained = nc.Network(first.layers + second.layers, role="generator")
        rng = np.random.default_rng(5)
        zs = rng.normal(size=(3, 1, first.input_dim))
        gs = rng.normal(size=(3, 1, second.output_dim))
        t1 = nc.forward(first, zs, check_finite=False)
        t2 = nc.forward(second, t1.output, check_finite=False)
        tc = nc.forward(chained, zs, check_finite=False)
        assert tc.output.tobytes() == t2.output.tobytes()
        want = nc.backward(first, t1, nc.backward(second, t2, gs))
        assert nc.backward(chained, tc, gs).tobytes() == want.tobytes()

    def test_overflow_names_the_images(self):
        net = nc.Network([dense([[1e200]]), nc.ReLU(), dense([[1.0]])], role="generator")
        xs = np.ones((4, 2, 1))
        xs[1, 0, 0] = xs[3, 1, 0] = -1e200
        with pytest.raises(nc.NumericsError, match=r"layer 0 \(dense\)") as info:
            nc.forward(net, xs)
        assert info.value.images.tolist() == [1, 3]
        with pytest.raises(nc.NumericsError) as info:
            nc.forward(net, xs[1])
        assert info.value.images is None

    def test_parameter_gradients_refuse_a_stack(self):
        net = nc.Network([dense(np.eye(2))], role="generator")
        trace = nc.forward(net, np.ones((3, 1, 2)))
        with pytest.raises(nc.DimensionError, match="2-d"):
            nc.backward_params(net, trace, np.ones((3, 1, 2)))


class TestDescentStack:
    """A stacked descent retires images and isolates overflows, and each
    image's path equals its own descent, bit for bit."""

    def test_retired_and_failed_images_match_their_own_descent(self):
        rng = np.random.default_rng(7)
        net = nc.Network(
            [dense(rng.normal(size=(6, 3)), rng.normal(size=6)), nc.Sigmoid(),
             dense(rng.normal(size=(2, 6)))],
            role="generator",
        )
        z0 = rng.normal(size=(5, 2, 3))
        z0[2, 1, 0] = np.nan  # fails its first pass
        targets = rng.normal(size=(5, 2, 2))
        stop_at = {0: 3, 1: 9, 3: 0}  # image 4 runs the whole budget

        def objective(z, active):
            trace = nc.forward(net, z)
            g = 2.0 * (trace.outputs[-1] - targets[active])
            return nc.backward(net, trace, g), trace.outputs[-1]

        run = nc.Descent(objective, z0, 0.05, 12)
        got = {i: [] for i in range(5)}
        for step, z, out in run:
            done = np.array([stop_at.get(i) == step for i in run.active])
            for j, i in enumerate(run.active):
                got[i].append((step, z[j].copy(), out[j].copy()))
            run.retire(done)
        assert list(run.errors) == [2]
        step, exc = run.errors[2]
        assert step == 0 and "layer 0 (dense)" in str(exc)
        assert got[2] == []
        for i in (0, 1, 3, 4):
            def alone(z, active, i=i):
                trace = nc.forward(net, z)
                g = 2.0 * (trace.outputs[-1] - targets[i])
                return nc.backward(net, trace, g), trace.outputs[-1]

            want = list(nc.Descent(alone, z0[i], 0.05, stop_at.get(i, 12)))
            assert [s for s, _, _ in got[i]] == [s for s, _, _ in want]
            assert all(
                np.array_equal(a, c) and np.array_equal(b, d)
                for (_, a, b), (_, c, d) in zip(got[i], want)
            )

    def test_active_changes_only_when_an_image_retires(self):
        targets = np.arange(6.0).reshape(3, 1, 2)
        targets_at = nc.gathered(targets)
        seen = []

        def objective(z, active):
            (target,) = targets_at(active)
            seen.append((active, target))
            return 2.0 * (z - target), z

        run = nc.Descent(objective, np.zeros((3, 1, 2)), 0.1, 4)
        for step, _, _ in run:
            run.retire([False, step == 2, False] if len(run.active) == 3 else [False, False])
        actives = [a for a, _ in seen]
        assert all(a is actives[0] for a in actives[:3])  # steps 0..2, before the retirement
        assert all(a is actives[3] for a in actives[3:]) and actives[3] is not actives[0]
        assert seen[0][1] is targets  # every image: the constants themselves
        assert seen[3][1].tolist() == targets[[0, 2]].tolist()
        assert all(t is seen[3][1] for _, t in seen[3:])  # gathered once

    def test_error_without_image_indices_propagates(self):
        net = nc.Network([dense([[1e200]])], role="generator")

        def objective(z, active):
            trace = nc.forward(net, z)
            return nc.backward(net, trace, np.ones_like(trace.outputs[-1])), None

        with pytest.raises(nc.NumericsError):
            list(nc.Descent(objective, np.full((2, 1), 1e200), 0.1, 3))


class TestLoss:
    def test_mse_self_is_zero(self):
        value, grad = nc.loss("mse", [1.0, 2.0], [1.0, 2.0])
        assert value == 0.0 and np.array_equal(grad, [0.0, 0.0])

    def test_cross_entropy_half(self):
        value, _ = nc.loss("cross_entropy", [0.5, 0.5], [1.0, 0.0])
        assert np.isclose(value, math.log(2.0), rtol=1e-12)

    def test_cross_entropy_clamped_never_nan(self):
        value, grad = nc.loss("cross_entropy", [0.0, 1.0], [1.0, 0.0])
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        assert value == pytest.approx(-math.log(1e-12))

    def test_cross_entropy_rejects_soft_targets(self):
        with pytest.raises(nc.DimensionError):
            nc.loss("cross_entropy", [0.5, 0.5], [0.7, 0.3])

    def test_shape_mismatch(self):
        with pytest.raises(nc.DimensionError):
            nc.loss("mse", [1.0, 2.0], [1.0])


class TestProperties:
    # logit spreads beyond ~36 saturate float64 (exp(-36) < machine epsilon),
    # so the open-interval property is tested on the non-degenerate domain
    @given(st.lists(st.floats(-15, 15), min_size=2, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_softmax_distribution(self, logits):
        out = single(nc.SoftMax(), logits).output
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_dropout_expectation_matches_eval(self):
        # network linear after the dropout layer, so eval is the expectation
        rng = np.random.default_rng(8)
        w2 = rng.uniform(0.5, 1.5, size=(3, 4))
        net = nc.Network(
            [dense(np.eye(4)), nc.Dropout(0.25), nc.Dense(w2, np.zeros(3))],
            role="generator",
        )
        x = np.array([1.0, 2.0, 3.0, 4.0])
        eval_out = nc.forward(net, x).output
        total = np.zeros(3)
        for i in range(10_000):
            total += nc.forward(net, x, mode="train", rng_seed=i).output
        mean = total / 10_000
        assert np.all(np.abs(mean - eval_out) <= 0.02 * np.abs(eval_out))


class TestSerialization:
    def build(self):
        rng = np.random.default_rng(4)
        return nc.Network(
            [
                nc.Dense(rng.normal(size=(5, 4)), rng.normal(size=5)),
                nc.ReLU(),
                nc.Dropout(0.25),
                nc.Dense(rng.normal(size=(3, 5)), rng.normal(size=3)),
                nc.SoftMax(),
            ],
            role="classifier",
            feature_tap=1,
        )

    def test_round_trip_exact(self, tmp_path):
        net = self.build()
        path = tmp_path / "net.json"
        nc.save_network(net, path)
        loaded = nc.load_network(path)
        nc.save_network(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "layers": []}')
        with pytest.raises(nc.NetworkFormatError, match="magic"):
            nc.load_network(path)

    def test_truncated_weights_names_layer(self, tmp_path):
        import json

        net = self.build()
        path = tmp_path / "net.json"
        nc.save_network(net, path)
        doc = json.loads(path.read_text())
        doc["layers"][0]["weight"] = doc["layers"][0]["weight"][: -24]
        path.write_text(json.dumps(doc))
        with pytest.raises(nc.NetworkFormatError, match="layer 0"):
            nc.load_network(path)

    def test_array_codec(self):
        arr = np.arange(6.0).reshape(2, 3)
        text = nc.encode_array(arr)
        assert np.array_equal(nc.decode_array(text, (2, 3), "w"), arr)
        with pytest.raises(nc.NetworkFormatError, match="60 characters cannot hold 48 bytes"):
            nc.decode_array(text[:-4], (2, 3), "w")
        with pytest.raises(ValueError, match="not base64"):
            nc.decode_array("!" + text[1:], (2, 3), "w", ValueError)

    @given(
        n=st.integers(1, 7), width=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
        rows=st.lists(st.integers(0, 6), max_size=9),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_decode_as_the_whole_array(self, n, width, seed, rows):
        # rows of 8 * width bytes start at every offset modulo 3, so every
        # position of a row within base64's 3-byte groups is covered
        arr = np.random.default_rng(seed).normal(size=(n, width))
        text = nc.encode_array(arr)
        rows = [r % n for r in rows]
        got = nc.decode_array(text, (n, width), "w", rows=rows)
        assert got.shape == (len(rows), width)
        assert got.tobytes() == nc.decode_array(text, (n, width), "w")[rows].tobytes()

    def test_rows_codec_refusals(self):
        arr = np.arange(12.0).reshape(4, 3)
        text = nc.encode_array(arr)  # 96 bytes, 128 characters; row 1 is characters 32..64
        with pytest.raises(nc.NetworkFormatError, match="124 characters cannot hold 96 bytes"):
            nc.decode_array(text[:-4], (4, 3), "w", rows=[0])
        garbled = text[:40] + "!" + text[41:]
        with pytest.raises(ValueError, match="not base64"):
            nc.decode_array(garbled, (4, 3), "w", ValueError, [1])
        padded = text[:40] + "=" + text[41:]
        with pytest.raises(ValueError, match="not base64"):
            nc.decode_array(padded, (4, 3), "w", ValueError, [1])
        # the other rows' characters are not read
        assert np.array_equal(nc.decode_array(garbled, (4, 3), "w", rows=[3, 0]), arr[[3, 0]])
        for row in (-1, 4):
            with pytest.raises(IndexError):
                nc.decode_array(text, (4, 3), "w", rows=[row])

    def test_checksum_mismatch(self, tmp_path):
        import base64
        import json

        net = self.build()
        path = tmp_path / "net.json"
        nc.save_network(net, path)
        doc = json.loads(path.read_text())
        raw = bytearray(base64.b64decode(doc["layers"][0]["weight"]))
        raw[0] ^= 0xFF
        doc["layers"][0]["weight"] = base64.b64encode(bytes(raw)).decode()
        path.write_text(json.dumps(doc))
        with pytest.raises(nc.NetworkFormatError, match="checksum"):
            nc.load_network(path)

    def test_version_mismatch(self, tmp_path):
        import json

        path = tmp_path / "net.json"
        path.write_text(json.dumps({"format": nc.NETWORK_MAGIC, "format_version": 99}))
        with pytest.raises(nc.NetworkFormatError, match="version"):
            nc.load_network(path)


class TestAtomicWrite:
    def test_failed_json_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "doc.json"
        nc.write_json(path, {"a": 1})
        with pytest.raises(TypeError):
            nc.write_json(path, {"a": 2, "b": object()})  # fails mid-dump
        assert path.read_text() == '{"a": 1}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_failed_json_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            nc.write_json(tmp_path / "doc.json", {"a": 2, "b": object()})
        assert list(tmp_path.iterdir()) == []

    def test_two_writers_of_one_path_both_succeed(self, tmp_path):
        # both writers hold their temporary file open at once; with one
        # shared temporary name the second `os.replace` found nothing
        import threading

        path = tmp_path / "doc.txt"
        both_open = threading.Barrier(2)
        errors = []

        def writer(text):
            try:
                with nc.atomic_write(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                    both_open.wait(timeout=10)
                    fh.write(text)
            except BaseException as exc:  # noqa: BLE001 (reported below)
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in ("a" * 5000, "b" * 7)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert path.read_text() in ("a" * 10000, "b" * 14)
        assert [p.name for p in tmp_path.iterdir()] == ["doc.txt"]
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        assert path.stat().st_mode == plain.stat().st_mode
