"""Acceptance gate: one test per shipping criterion.

Every test prints one verdict line (bypassing pytest's capture, so the
lines show up in any run) and then asserts.  The verdict is computed
before the asserts fire, so a red test still leaves an honest line in
the log.  Criterion 12 is informative by design and never gates.
"""

import time

import numpy as np
import pytest

from srr import rates
from srr.analysis import HyperPoint, ZooRecord, granulated_psi, kendall_tau
from srr.data import DatasetSpec, FormatError, parse_cifar_bytes, synth_dataset
from srr.layers import attention_update, mssa, patchify, stacked_attention_heads
from srr.linalg import orthonormal_basis, rng_for
from srr.model import ModelConfig, init_model, param_count
from srr.toy_dynamics import run_dynamics
from srr.training import TrainConfig, cross_entropy_np, gradients, srr_regularized_loss, train
from srr.zoo import GridSpec, correlate_zoo, load_zoo_records, measure_zoo, run_zoo


def _emit(capfd, num, ok, detail):
    status = ok if isinstance(ok, str) else ("PASS" if ok else "FAIL")
    with capfd.disabled():
        print(f"criterion {num:>2}: {status} - {detail}", flush=True)


def _central_diff(f, Z, h=1e-5):
    g = np.zeros_like(Z)
    it = np.nditer(Z, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        zp = Z.copy()
        zp[idx] += h
        zm = Z.copy()
        zm[idx] -= h
        g[idx] = (f(zp) - f(zm)) / (2.0 * h)
    return g


def test_criterion_01_rate_gradient_oracles(capfd):
    """Closed-form compression gradients match central finite differences."""
    d, N, K, gamma, h = 16, 8, 4, 0.7, 1e-5
    t0 = time.monotonic()
    worst = [0.0, 0.0, 0.0]
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        Z = rng.standard_normal((d, N))
        U = orthonormal_basis(d, rng_for(9, "acceptance-grad", trial))

        g = rates.grad_projected_coding_rate(Z, U, K, gamma)
        fd = _central_diff(lambda z: rates.projected_coding_rate(z, U, K, gamma), Z, h)
        worst[0] = max(worst[0], np.abs(g - fd).max() / np.abs(fd).max())

        g1, g2 = rates.grad_taylor_terms(Z, U, K, gamma)
        fd1 = _central_diff(lambda z: rates.taylor_terms(z, U, K, gamma)[0], Z, h)
        fd2 = _central_diff(lambda z: rates.taylor_terms(z, U, K, gamma)[1], Z, h)
        worst[1] = max(worst[1], np.abs(g1 - fd1).max() / np.abs(fd1).max())
        worst[2] = max(worst[2], np.abs(g2 - fd2).max() / np.abs(fd2).max())
    elapsed = time.monotonic() - t0
    ok = max(worst) <= 1e-6 and elapsed < 10.0
    _emit(capfd, 1, ok,
          f"exact/first/second grads vs central differences, worst rel err "
          f"{max(worst):.2e} (bound 1e-6) on 20 instances in {elapsed:.1f}s (limit 10s)")
    assert max(worst) <= 1e-6
    assert elapsed < 10.0


def test_criterion_02_expansion_lower_bound(capfd):
    """first + second stays below the full compression term; ties at Z=0."""
    d, N, K, gamma = 16, 8, 4, 0.7
    t0 = time.monotonic()
    min_slack = np.inf
    for trial in range(100):
        rng = np.random.default_rng(2000 + trial)
        Z = 0.1 * rng.standard_normal((d, N))
        U = orthonormal_basis(d, rng_for(9, "acceptance-bound", trial))
        first, second = rates.taylor_terms(Z, U, K, gamma)
        rc = rates.projected_coding_rate(Z, U, K, gamma)
        min_slack = min(min_slack, rc - (first + second))
    Z0 = np.zeros((d, N))
    U0 = orthonormal_basis(d, rng_for(9, "acceptance-bound", 999))
    f0, s0 = rates.taylor_terms(Z0, U0, K, gamma)
    rc0 = rates.projected_coding_rate(Z0, U0, K, gamma)
    elapsed = time.monotonic() - t0
    ok = min_slack >= -1e-12 and f0 == 0.0 and s0 == 0.0 and rc0 == 0.0 and elapsed < 5.0
    _emit(capfd, 2, ok,
          f"min slack {min_slack:.2e} over 100 small-norm instances "
          f"(bound -1e-12), exact equality at Z=0, {elapsed:.1f}s (limit 5s)")
    assert min_slack >= -1e-12
    assert f0 == 0.0 and s0 == 0.0 and rc0 == 0.0
    assert elapsed < 5.0


def test_criterion_03_ascent_descent_reproduction(capfd):
    """At full scale the approximate rules ascend the compression term while
    the exact-gradient and negative-approximation rules descend it."""
    t0 = time.monotonic()
    scale = dict(N=196, L=12, d=384, K=6, alpha=1.0, gamma=1.0, seed=0)
    want_sign = {"a": -1, "b": +1, "d": +1, "e": +1, "n": -1}
    got = {}
    complete = {}
    for rule in want_sign:
        tr = run_dynamics(rule, **scale)
        deltas = [r.rc_after - r.rc_before for r in tr.rows]
        got[rule] = all(np.sign(x) == want_sign[rule] for x in deltas)
        complete[rule] = len(tr.rows) == 12 and not tr.truncated
    again = run_dynamics("e", **scale)
    ref = run_dynamics("e", **scale)
    deterministic = [(r.rc_before, r.rc_after) for r in again.rows] == \
                    [(r.rc_before, r.rc_after) for r in ref.rows]
    elapsed = time.monotonic() - t0
    ok = all(got.values()) and all(complete.values()) and deterministic and elapsed < 120.0
    _emit(capfd, 3, ok,
          f"N=196 d=384 K=6 L=12: e,b,d rise and a,n fall at all 12 layers "
          f"({'all hold' if all(got.values()) else 'violated: ' + str(got)}), "
          f"deterministic per seed, {elapsed:.1f}s (limit 120s)")
    for rule in want_sign:
        assert complete[rule], f"rule {rule} did not record 12 layers"
        assert got[rule], f"rule {rule} has a wrong-sign layer"
    assert deterministic
    assert elapsed < 120.0


def test_criterion_04_attention_two_forms(capfd):
    """Summed-head attention equals the block-concatenated factorization."""
    shapes = [(8, 2), (12, 3), (16, 4), (24, 4), (32, 8)]
    worst = 0.0
    for trial in range(20):
        d, K = shapes[trial % len(shapes)]
        rng = np.random.default_rng(3000 + trial)
        N = int(rng.integers(4, 13))
        Z = rng.standard_normal((d, N))
        U = orthonormal_basis(d, rng_for(9, "acceptance-forms", trial))
        summed = mssa(Z, U, K)
        block = U @ stacked_attention_heads(Z, U, K)
        worst = max(worst, np.abs(summed - block).max())
    ok = worst <= 1e-12
    _emit(capfd, 4, ok,
          f"summed vs block-concatenated attention, max abs diff {worst:.2e} "
          f"(bound 1e-12) over 20 configurations")
    assert worst <= 1e-12


def test_criterion_05_variant_algebra(capfd):
    """The +/- variants mirror around the identity; shared output matrices
    collapse the variants onto each other bitwise."""
    worst = 0.0
    mirror_tol = 1e-13  # one rounding of the shared update term per entry
    w_bitwise = True
    t_bitwise = True
    for trial in range(20):
        d, K = 16, 4
        rng = np.random.default_rng(4000 + trial)
        Z = rng.standard_normal((d, int(rng.integers(4, 13))))
        gamma = float(rng.uniform(0.5, 1.5))
        U = orthonormal_basis(d, rng_for(9, "acceptance-variants", trial))
        c = attention_update(Z, U, K, "crate_c", gamma)
        n = attention_update(Z, U, K, "crate_n", gamma)
        worst = max(worst, np.abs(c + n - 2.0 * Z).max())
        w_bitwise = w_bitwise and np.array_equal(attention_update(Z, U, K, "crate", gamma, W=U.copy()), c)
        t_bitwise = t_bitwise and np.array_equal(
            attention_update(Z, np.eye(d), K, "crate_t", gamma),
            attention_update(Z, np.eye(d), K, "crate_c", gamma),
        )
    ok = worst <= mirror_tol and w_bitwise and t_bitwise
    _emit(capfd, 5, ok,
          f"plus/minus variants mirror to machine precision (max dev {worst:.2e}, "
          f"bound {mirror_tol:g}); learned-W=stacked-bases and transpose-at-identity "
          f"agree bitwise")
    assert worst <= mirror_tol
    assert w_bitwise
    assert t_bitwise


def test_criterion_06_detached_regularizer_locality(capfd):
    """The layer-3 regularizer term moves no gradient into layers 1-2, and a
    zero regularizer weight leaves the loss exactly equal to cross-entropy."""
    cfg = ModelConfig(L=3, d=8, K=2, feat_dim=6, num_tokens=4, num_classes=3, seed=0)
    model = init_model(cfg)
    rng = rng_for(1)
    x = rng.standard_normal((4, cfg.in_dim, cfg.grid_tokens))
    y = rng_for(1, "y").integers(0, cfg.num_classes, 4)

    plain, parts0 = srr_regularized_loss(model, (x, y), TrainConfig())
    g_ce = gradients(plain, model.trainable_params())
    reg_cfg = TrainConfig(eta_reg=0.7, reg_mode="fixed_layer", reg_layer=3)
    full, parts = srr_regularized_loss(model, (x, y), reg_cfg)
    g_full = gradients(full, model.trainable_params())

    early_zero = all(
        np.array_equal(g_full[name], g_ce[name])
        for name in g_ce
        if not name.startswith("layers.2.")
    )
    layer3_moved = any(
        not np.array_equal(g_full[name], g_ce[name])
        for name in g_ce
        if name.startswith("layers.2.")
    )
    tokens = model.embed_inputs(x, train_mode=True)
    logits, _ = model.run(tokens)
    eta_zero_exact = (plain.item() == cross_entropy_np(logits.data, y)
                      and parts0["reg_value"] == 0.0
                      and parts0["selected_layers"] == [])

    ok = early_zero and layer3_moved and eta_zero_exact
    _emit(capfd, 6, ok,
          "layer-3 term leaves layer-1/2 gradients bitwise untouched, moves "
          "layer-3 weights, and eta=0 loss equals plain cross-entropy exactly")
    assert parts["selected_layers"] == [3]
    assert early_zero
    assert layer3_moved
    assert eta_zero_exact


def _reference_tau(samples):
    n = len(samples)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dm = samples[i][0] - samples[j][0]
            dg = samples[i][1] - samples[j][1]
            total += np.sign(dm) * np.sign(dg)
    return total / (n * (n - 1))


def test_criterion_07_rank_correlation(capfd):
    """Rank correlation matches hand values and an independent rewrite."""
    fixtures_ok = (
        kendall_tau([(1, 1), (2, 2)]) == 1.0
        and kendall_tau([(1, 2), (2, 1)]) == -1.0
        and kendall_tau([(1, 1), (2, 3), (3, 2)]) == 1.0 / 3.0
    )
    rng = np.random.default_rng(77)
    cross_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 31))
        mus = rng.integers(0, 5, n).astype(float)
        gaps = rng.integers(0, 5, n).astype(float)
        samples = list(zip(mus, gaps))
        if kendall_tau(samples) != _reference_tau(samples):
            cross_ok = False
            break
    ok = fixtures_ok and cross_ok
    _emit(capfd, 7, ok,
          "hand fixtures (1, -1, 1/3) exact; 50 random lists (n <= 30, with "
          "ties) agree exactly with an independent quadratic rewrite")
    assert fixtures_ok
    assert cross_ok


def _zoo_record(bs, lr, w, do, var, mu, gap, converged=True):
    theta = HyperPoint(batch_size=bs, lr_init=lr, width=w, dropout=do, model_variant=var)
    return ZooRecord(theta=theta, measures={"m": mu}, gap=gap, converged=converged)


def test_criterion_08_granulated_correlation(capfd):
    """Axis-sliced correlation matches the 2x2 hand fixture and saturates on
    a fully concordant grid."""
    fixture = [
        _zoo_record(16, 1e-3, 32, 0.0, "v", 1.0, 1.0),
        _zoo_record(16, 1e-3, 32, 0.1, "v", 2.0, 2.0),
        _zoo_record(32, 1e-3, 32, 0.0, "v", 3.0, 4.0),
        _zoo_record(32, 1e-3, 32, 0.1, "v", 4.0, 3.0),
    ]
    per_axis, psi = granulated_psi(fixture, "m")
    fixture_ok = (
        per_axis["batch_size"] == 1.0
        and per_axis["dropout"] == 0.0
        and per_axis["lr_init"] is None
        and per_axis["model_variant"] is None
        and psi == 0.5
    )
    grid = []
    rank = 0.0
    for bs in (16, 32):
        for lr in (1e-3, 1e-2):
            for do in (0.0, 0.1):
                for var in ("p", "q"):
                    rank += 1.0
                    grid.append(_zoo_record(bs, lr, 32, do, var, rank, rank))
    per_axis_full, psi_full = granulated_psi(grid, "m")
    full_ok = psi_full == 1.0 and all(per_axis_full[a] == 1.0 for a in per_axis_full)
    ok = fixture_ok and full_ok
    _emit(capfd, 8, ok,
          "2x2 fixture gives axis values (1.0, 0.0) and psi 0.5 exactly; "
          "fully concordant 16-cell grid gives psi 1.0")
    assert fixture_ok
    assert full_ok


def test_criterion_09_parameter_counting(capfd):
    """Variant parameter-count identities at both geometries; exact totals at
    32px/patch-4 (65 tokens), from a hand sum and from the allocated
    trainables of every variant; and the published 3.94M/5.71M totals within
    2% at 224px/patch-16 (197 tokens), the geometry they count."""
    base = dict(L=12, d=384, K=6, num_classes=10)
    geoms = {"32/4": dict(patch=4, image_size=32), "224/16": dict(patch=16, image_size=224)}
    counts = {(g, v): param_count(ModelConfig(variant=v, **geom, **base))
              for g, geom in geoms.items()
              for v in ("crate_c", "crate_n", "crate_t", "crate")}
    counts_eq = all(counts[g, "crate_c"] == counts[g, "crate_n"] == counts[g, "crate_t"]
                    for g in geoms)
    gap_ok = all(counts[g, "crate"] - counts[g, "crate_c"] == 12 * 384 * 384 for g in geoms)

    # 32px/patch-4: embed 384*48 + cls 384 + pos 384*(64+1)
    # + 12*(U, D: 2*384^2; two layer norms: 4*384) + head 10*384+10;
    # the learned output W adds 12*384^2.  Totals 3,605,002 and 5,374,474.
    hand_c = 384 * 48 + 384 + 384 * 65 + 12 * (2 * 384 * 384 + 4 * 384) + (10 * 384 + 10)
    hand_w = hand_c + 12 * 384 * 384
    small_c, small_w = counts["32/4", "crate_c"], counts["32/4", "crate"]
    exact = small_c == hand_c and small_w == hand_w
    allocated = {
        v: sum(t.data.size for t in init_model(
            ModelConfig(variant=v, **geoms["32/4"], **base)).trainable_params().values())
        for v in ("crate_c", "crate_n", "crate_t", "crate_fix", "crate")
    }
    alloc_ok = all(n == (hand_w if v == "crate" else hand_c) for v, n in allocated.items())

    pub_c, pub_w = counts["224/16", "crate_c"], counts["224/16", "crate"]
    dev_c = abs(pub_c - 3.94e6) / 3.94e6
    dev_w = abs(pub_w - 5.71e6) / 5.71e6
    within = dev_c <= 0.02 and dev_w <= 0.02

    ok = counts_eq and gap_ok and exact and alloc_ok and within
    _emit(capfd, 9, ok,
          f"count identities exact at both geometries (C=N=T; learned-W adds "
          f"L*d^2 = 1769472); 32px/patch-4 totals {small_c}/{small_w} vs hand "
          f"sums {hand_c}/{hand_w}, allocated trainables "
          f"{'match' if alloc_ok else 'differ'} for all five variants; "
          f"224px/patch-16 totals {pub_c}/{pub_w} sit {dev_c:.1%}/{dev_w:.1%} "
          f"from the published 3.94M/5.71M (2% bound)")
    assert counts_eq
    assert gap_ok
    assert exact, f"32px/patch-4 totals {small_c}/{small_w} vs hand sums {hand_c}/{hand_w}"
    assert alloc_ok, f"allocated trainables {allocated} vs hand sums {hand_c}/{hand_w}"
    assert within, (
        f"224px/patch-16 totals {pub_c} vs 3.94M ({dev_c:.1%}), "
        f"{pub_w} vs 5.71M ({dev_w:.1%})"
    )


def test_criterion_10_desk_scale_pipeline(capfd, tmp_path):
    """32-cell sweep trains, measures, and correlates end to end on CPU."""
    t0 = time.monotonic()
    out = str(tmp_path / "zoo")
    grid = GridSpec.desk()
    data = DatasetSpec(source="synthetic", separation=4.0)
    model = ModelConfig(L=2, d=32, K=4, feat_dim=data.feat_dim,
                        num_tokens=data.tokens, num_classes=data.classes)
    train_cfg = TrainConfig(epochs=60, stop_criterion=0.05)
    manifest = run_zoo(grid, data, train_cfg, out, model)
    cells = manifest["cells"]
    all_done = len(cells) == 32 and all(c["status"] == "done" for c in cells.values())
    all_converged = all_done and all(c["converged"] for c in cells.values())

    measures_path = measure_zoo(out)
    with open(measures_path, "rb") as fh:
        measures_first = fh.read()
    measure_zoo(out)
    with open(measures_path, "rb") as fh:
        measures_second = fh.read()

    report = correlate_zoo(out)
    regenerated = correlate_zoo(out)
    report_stable = report.to_csv_text() == regenerated.to_csv_text()

    taus = []
    for row in report.rows:
        for key in ("overall_tau", "psi", "batch_size", "lr_init", "dropout", "model_variant"):
            v = row.get(key)
            if isinstance(v, float):
                taus.append(v)
    bounds_ok = all(-1.0 <= v <= 1.0 for v in taus)
    records = load_zoo_records(out)
    elapsed = time.monotonic() - t0

    ok = (all_done and all_converged and measures_first == measures_second
          and report_stable and bounds_ok and len(records) == 32 and elapsed < 1800.0)
    _emit(capfd, 10, ok,
          f"32/32 cells trained ({sum(c['converged'] for c in cells.values())} "
          f"converged), measures and report regenerate byte-identically, "
          f"{len(taus)} correlation values in [-1,1], {elapsed:.0f}s (limit 1800s)")
    assert all_done
    assert all_converged
    assert measures_first == measures_second
    assert report_stable
    assert bounds_ok
    assert len(records) == 32
    assert elapsed < 1800.0


def test_criterion_11_regularized_training_smoke(capfd, tmp_path):
    """Last-layer regularized training reaches the stop criterion and logs
    the regularizer value every epoch."""
    spec = DatasetSpec(source="synthetic", classes=2, tokens=4, feat_dim=6,
                       subspace_dim=2, separation=5.0, noise=0.1,
                       n_train=64, n_val=32, seed=0)
    dataset = synth_dataset(spec)
    cfg = ModelConfig(L=2, d=8, K=2, feat_dim=6, num_tokens=4, num_classes=2, seed=0)
    model = init_model(cfg)
    train_cfg = TrainConfig(batch_size=16, lr_init=1e-2, epochs=50, stop_criterion=0.05,
                            eta_reg=1e-3, reg_mode="fixed_layer", reg_layer=2)
    trace = train(model, dataset, train_cfg, trace_path=str(tmp_path / "trace.csv"))
    reg_logged = len(trace.epochs) > 0 and all(e.reg_value != 0.0 for e in trace.epochs)
    ok = trace.converged and not trace.diverged and reg_logged
    _emit(capfd, 11, ok,
          f"last-layer regularizer (eta 1e-3) converged to CE <= 0.05 in "
          f"{len(trace.epochs)} epochs with a nonzero regularizer value "
          f"logged every epoch")
    assert trace.converged
    assert not trace.diverged
    assert reg_logged


def test_criterion_12_layerwise_compression_trend(capfd):
    """Informative only: per-layer sparse-rate measure trend across the first
    nine layers of a freshly initialized full-width model."""
    cfg = ModelConfig(L=12, d=384, K=6, variant="crate", patch=4,
                      image_size=32, num_classes=10, seed=0)
    model = init_model(cfg)
    images = np.random.default_rng(7).random((8, 32, 32, 3))
    probes = model.probe(patchify(images, cfg.patch))
    srr_by_layer = [p.srr for p in probes]
    deltas = [srr_by_layer[i + 1] - srr_by_layer[i] for i in range(8)]
    down = sum(d < 0 for d in deltas)
    majority = down > len(deltas) // 2
    _emit(capfd, 12, "INFO",
          f"fresh d=384 L=12 model on one image batch: measure decreases on "
          f"{down}/8 transitions within layers 1-9 "
          f"({'majority' if majority else 'no majority'}); informative only, "
          f"does not gate")
    assert len(probes) == 12
    assert all(np.isfinite(srr_by_layer))


def _rgb_record_bytes(labels, value_fn):
    """Build one CIFAR-style record per label: label byte(s) + 3 planes."""
    out = bytearray()
    for rec_idx, label in enumerate(labels):
        out.extend(label if isinstance(label, (bytes, bytearray)) else bytes([label]))
        for plane in range(3):
            out.extend(value_fn(rec_idx, plane))
    return bytes(out)


def test_criterion_13_image_archive_parser(capfd):
    """Byte-exact parsing for both record layouts; truncation errors carry
    the record index."""
    def plane(rec_idx, plane_idx):
        start = (rec_idx * 3 + plane_idx) * 7 % 200
        return bytes((start + i) % 256 for i in range(1024))

    raw10 = _rgb_record_bytes([3, 9], plane)
    images10, labels10 = parse_cifar_bytes(raw10, variant=10)
    expect10 = np.stack([
        np.frombuffer(raw10[r * 3073 + 1:(r + 1) * 3073], dtype=np.uint8)
        .reshape(3, 32, 32).transpose(1, 2, 0).astype(np.float64) / 255.0
        for r in range(2)
    ])
    ten_ok = (np.array_equal(labels10, [3, 9]) and images10.shape == (2, 32, 32, 3)
              and np.array_equal(images10, expect10))

    raw100 = _rgb_record_bytes([bytes((11, 42)), bytes((0, 7))], plane)
    images100, labels100 = parse_cifar_bytes(raw100, variant=100)
    expect100 = np.stack([
        np.frombuffer(raw100[r * 3074 + 2:(r + 1) * 3074], dtype=np.uint8)
        .reshape(3, 32, 32).transpose(1, 2, 0).astype(np.float64) / 255.0
        for r in range(2)
    ])
    hundred_ok = (np.array_equal(labels100, [42, 7])
                  and np.array_equal(images100, expect100))

    with pytest.raises(FormatError, match="record 2") as exc10:
        parse_cifar_bytes(raw10 + raw10[:100], variant=10)
    with pytest.raises(FormatError, match="record 1") as exc100:
        parse_cifar_bytes(raw100[: 3074 + 50], variant=100)
    truncation_ok = ("100 of 3073 bytes" in str(exc10.value)
                     and "50 of 3074 bytes" in str(exc100.value))

    ok = ten_ok and hundred_ok and truncation_ok
    _emit(capfd, 13, ok,
          "both record layouts parse byte-exactly on crafted fixtures; "
          "truncation errors carry the failing record index and byte counts")
    assert ten_ok
    assert hundred_ok
    assert truncation_ok
