import math
import tracemalloc

import numpy as np
import pytest

from hdrkit import losses
from hdrkit.image import HdrImage, channel_mean, exposure_preview
from hdrkit.losses import (
    LOG_PSNR_CAP_DB,
    LossConfig,
    display_anchor,
    log_psnr,
    metric_report,
    optimal_scale,
    pano_loss,
    preview_ssim,
    scale_invariant_loss,
    seg_cross_entropy,
    si_mse,
    ssim,
    total_loss,
)
from hdrkit.render import compare_renders


def golden_section_min(f, lo, hi, iters=200):
    """Independent optimizer used as the oracle for the closed forms."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return f((a + b) / 2.0)


def random_pair(seed, shape=(24, 24, 3)):
    rng = np.random.default_rng(seed)
    return (rng.lognormal(0.0, 1.0, shape), rng.lognormal(0.0, 1.0, shape))


# --- optimal scale and scale-invariant loss ----------------------------------

def test_optimal_scale_constant_ratio():
    gt = np.full((4, 4, 3), 1.0)
    assert optimal_scale(2.0 * gt, gt, eps=1e-12) == pytest.approx(0.5, rel=1e-9)
    assert optimal_scale(gt, gt) == pytest.approx(1.0, abs=1e-15)


def test_optimal_scale_hand_case():
    # single channel, two elements, eps -> 0: log k = -(0 + 2)/2 = -1
    pred = np.array([[[1.0], [math.e ** 2]]])
    gt = np.array([[[1.0], [1.0]]])
    k = optimal_scale(pred, gt, eps=1e-15)
    assert k == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_si_loss_zero_for_matches():
    _, gt = random_pair(0)
    assert scale_invariant_loss(gt, gt) == 0.0
    assert scale_invariant_loss(7.3 * gt, gt, eps=1e-12) == pytest.approx(0.0, abs=1e-12)


def test_si_loss_hand_case():
    # d = [0, 2]: mean(d^2) - mean(d)^2 = 2 - 1 = 1
    pred = np.array([[[1.0], [math.e ** 2]]])
    gt = np.array([[[1.0], [1.0]]])
    assert scale_invariant_loss(pred, gt, eps=0.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kappa", [1e-3, 1e3])
def test_si_loss_scale_invariance(kappa):
    # values bounded away from zero and eps proportional to the data keep
    # the log-guard's effect far below the 1e-9 tolerance
    rng = np.random.default_rng(1)
    pred = rng.uniform(1.0, 2.0, (24, 24, 3))
    gt = rng.uniform(1.0, 2.0, (24, 24, 3))
    eps = 1e-12 * max(pred.max(), gt.max())
    base = scale_invariant_loss(pred, gt, eps)
    assert abs(scale_invariant_loss(kappa * pred, gt, eps) - base) < 1e-9
    assert abs(scale_invariant_loss(pred, kappa * gt, eps) - base) < 1e-9


def test_si_loss_nonnegative():
    for seed in range(20):
        pred, gt = random_pair(seed, shape=(8, 8, 3))
        assert scale_invariant_loss(pred, gt) >= 0.0


def test_si_loss_matches_golden_section_oracle():
    pred, gt = random_pair(2)
    eps = 1e-6
    d = np.log(pred + eps) - np.log(gt + eps)

    def objective(log_k):
        return float(((d + log_k) ** 2).mean())

    oracle = golden_section_min(objective, math.log(1e-6), math.log(1e6))
    assert scale_invariant_loss(pred, gt, eps) == pytest.approx(oracle, abs=1e-6)


def test_si_mse_is_the_loss():
    pred, gt = random_pair(3)
    assert si_mse(pred, gt) == scale_invariant_loss(pred, gt)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        scale_invariant_loss(np.ones((2, 2, 3)), np.ones((2, 3, 3)))


# --- segmentation cross entropy ----------------------------------------------

def one_hot(classes):
    out = np.zeros(classes.shape + (3,))
    rows, cols = np.indices(classes.shape)
    out[rows, cols, classes] = 1.0
    return out


def test_ce_uniform_half():
    gt = one_hot(np.zeros((4, 5), dtype=int))
    pred = np.full((4, 5, 3), 0.5)
    # every element contributes ln 2 regardless of its label
    assert seg_cross_entropy(pred, gt) == pytest.approx(4 * 5 * 3 * math.log(2), rel=1e-12)


def test_ce_perfect_prediction_vanishes():
    gt = one_hot(np.arange(12).reshape(3, 4) % 3)
    for eps in (1e-3, 1e-6, 1e-9):
        pred = np.clip(gt, eps, 1 - eps)
        loss = seg_cross_entropy(pred, gt, eps)
        assert loss == pytest.approx(-12 * 3 * math.log(1 - eps), rel=1e-6)
        assert loss < 12 * 3 * 2 * eps  # -> 0 as eps -> 0


def test_ce_one_hot_swap_delta():
    # moving the predicted mass at one pixel from the true channel to a
    # wrong one changes two elements: delta = 2*ln((1-eps)/eps)
    eps = 1e-6
    gt = one_hot(np.zeros((2, 2), dtype=int))
    good = np.clip(gt, eps, 1 - eps)
    flipped = good.copy()
    flipped[0, 0, 0] = eps
    flipped[0, 0, 1] = 1 - eps
    delta = seg_cross_entropy(flipped, gt, eps) - seg_cross_entropy(good, gt, eps)
    assert delta == pytest.approx(2 * math.log((1 - eps) / eps), rel=1e-9)


# --- combined losses -----------------------------------------------------------

def test_total_loss_alpha_zero():
    pred, gt = random_pair(4, shape=(6, 6, 3))
    gt_mask = one_hot(np.zeros((6, 6), dtype=int))
    pred_mask = np.full((6, 6, 3), 0.3)
    cfg = LossConfig(alpha=0.0)
    assert total_loss(pred, gt, pred_mask, gt_mask, cfg) == scale_invariant_loss(pred, gt, cfg.epsilon)


def test_total_loss_affine_in_alpha():
    pred, gt = random_pair(5, shape=(6, 6, 3))
    gt_mask = one_hot(np.arange(36).reshape(6, 6) % 3)
    pred_mask = np.full((6, 6, 3), 0.4)

    def at(alpha):
        return total_loss(pred, gt, pred_mask, gt_mask, LossConfig(alpha=alpha))

    assert at(0.1) - at(0.0) == pytest.approx(2 * (at(0.05) - at(0.0)), rel=1e-9)


def test_total_loss_perfect_prediction():
    _, gt = random_pair(6, shape=(6, 6, 3))
    gt_mask = one_hot(np.arange(36).reshape(6, 6) % 3)
    eps = 1e-9
    pred_mask = np.clip(gt_mask, eps, 1 - eps)
    assert total_loss(gt, gt, pred_mask, gt_mask, LossConfig(epsilon=eps)) == pytest.approx(0.0, abs=1e-6)


def test_pano_loss_identities():
    pred, gt = random_pair(7, shape=(8, 8, 3))
    cfg = LossConfig()
    assert pano_loss(gt, gt, np.ones((8, 8)), cfg) == 0.0
    d = np.log(pred + cfg.epsilon) - np.log(gt + cfg.epsilon)
    full = pano_loss(pred, gt, np.ones((8, 8)), cfg)
    assert full == pytest.approx(cfg.beta1 * (d ** 2).mean(), rel=1e-12)


def test_pano_loss_constant_case():
    # d constant = 2 with a half mask: beta1*(0.5*2)^2 + beta2*(0.5*2)^2 = 0.21
    gt = np.full((4, 4, 3), 1.0)
    pred = gt * math.e ** 2
    mask = np.full((4, 4), 0.5)
    cfg = LossConfig(epsilon=1e-15)
    assert pano_loss(pred, gt, mask, cfg) == pytest.approx(0.21, rel=1e-9)


def test_pano_loss_mask_swap_identity():
    # complementing a binary mask swaps the roles of the two weighted terms,
    # so the two evaluations sum to (beta1+beta2)*mean(d^2)
    rng = np.random.default_rng(8)
    pred, gt = random_pair(8, shape=(8, 8, 3))
    mask = (rng.uniform(size=(8, 8)) < 0.5).astype(float)
    cfg = LossConfig()
    d = np.log(pred + cfg.epsilon) - np.log(gt + cfg.epsilon)
    total = pano_loss(pred, gt, mask, cfg) + pano_loss(pred, gt, 1.0 - mask, cfg)
    assert total == pytest.approx((cfg.beta1 + cfg.beta2) * (d ** 2).mean(), abs=1e-9)
    # equivalent formulation: same mask, swapped betas
    swapped = LossConfig(beta1=cfg.beta2, beta2=cfg.beta1)
    assert pano_loss(pred, gt, 1.0 - mask, cfg) == pytest.approx(
        pano_loss(pred, gt, mask, swapped), rel=1e-12)


def test_pano_loss_rejects_bad_mask():
    pred, gt = random_pair(9, shape=(4, 4, 3))
    with pytest.raises(ValueError):
        pano_loss(pred, gt, np.full((4, 4), 1.5))


@pytest.mark.parametrize("shape", [(1, 1), (4, 1), (1, 8), (8, 4), (4, 8, 2), (1, 1, 1), (4, 8, 1, 1)])
def test_pano_loss_refuses_a_mask_of_another_size(shape):
    # such masks used to broadcast over the image silently
    pred, gt = random_pair(9, shape=(4, 8, 3))
    with pytest.raises(ValueError, match=r"merge mask of shape .* does not fit"):
        pano_loss(pred, gt, np.full(shape, 0.5))


def test_pano_loss_takes_masks_of_the_image_size():
    pred, gt = random_pair(9, shape=(4, 8, 3))
    m = np.random.default_rng(3).uniform(size=(4, 8))
    want = pano_loss(pred, gt, m)
    assert pano_loss(pred, gt, m[..., None]) == want
    assert pano_loss(pred, gt, np.repeat(m[..., None], 3, axis=2)) == want


# --- display anchoring ---------------------------------------------------------

def test_display_anchor_identity():
    _, gt = random_pair(10, shape=(8, 8, 3))
    ldr = np.clip(gt, 0, 1)
    pa, ga = display_anchor(gt, gt, ldr)
    assert np.array_equal(pa, ga)


def test_display_anchor_removes_scale():
    _, gt = random_pair(11, shape=(8, 8, 3))
    ldr = np.clip(0.3 * gt, 0, 1)
    pa, ga = display_anchor(2.0 * gt, gt, ldr)
    assert np.allclose(pa, ga, rtol=1e-6)


def test_display_anchor_peak_definition():
    _, gt = random_pair(12, shape=(8, 8, 3))
    ldr = np.clip(0.3 * gt, 0, 1)
    _, ga = display_anchor(gt, gt, ldr)
    assert ga.flat[np.argmax(ldr)] == pytest.approx(255.0, rel=1e-6)


def test_display_anchor_black_ldr_rejected():
    _, gt = random_pair(13, shape=(4, 4, 3))
    with pytest.raises(ValueError):
        display_anchor(gt, gt, np.zeros_like(gt))


def test_anchored_report_takes_the_log_difference_once(monkeypatch):
    pred, gt = random_pair(14, shape=(32, 32, 3))
    ldr = np.clip(0.3 * gt, 0, 1)
    calls = []
    log = np.log

    def counting_log(*args, **kwargs):
        calls.append(1)
        return log(*args, **kwargs)

    monkeypatch.setattr(np, "log", counting_log)
    metric_report(pred, gt, ldr)
    # 32x32x3 values make one band per pass, and each pass takes its logs
    # once: two for the log difference's mean, two for its squared
    # deviations, one for log_psnr's range of the anchored gt, and two for
    # log_psnr's squared normalized differences
    assert len(calls) == 7


# --- log PSNR and SSIM ----------------------------------------------------------

def test_log_psnr_identical_capped():
    _, gt = random_pair(14, shape=(8, 8, 3))
    assert log_psnr(gt, gt) == LOG_PSNR_CAP_DB


def test_log_psnr_decreases_with_noise():
    rng = np.random.default_rng(15)
    _, gt = random_pair(15, shape=(16, 16, 3))
    small = gt * np.exp(rng.normal(0, 0.01, gt.shape))
    big = gt * np.exp(rng.normal(0, 0.3, gt.shape))
    assert log_psnr(small, gt) > log_psnr(big, gt)


def whole_image_log_psnr(pred, gt, eps=1e-6, cap_db=LOG_PSNR_CAP_DB):
    """log_psnr written out with every step a new full-size array."""
    p, g = (np.asarray(a, dtype=np.float64) for a in (pred, gt))
    lp = np.log(p + eps)
    lg = np.log(g + eps)
    lo = float(lg.min())
    span = float(lg.max()) - lo
    if span <= 0:
        span = 1.0
    mse = float((((lp - lo) / span - (lg - lo) / span) ** 2).mean())
    if mse == 0.0:
        return cap_db
    return min(-10.0 * math.log10(mse), cap_db)


@pytest.mark.parametrize("shape", [(1, 1, 3), (8, 8, 3), (64, 1024, 3)])
def test_log_psnr_in_place_matches_whole_image_formula(shape):
    pred, gt = random_pair(shape[1], shape)
    for p, g in [(pred, gt), (pred.astype(np.float32), gt.astype(np.float32)),
                 (pred, np.full(shape, 0.5)), (pred, pred * 2.0)]:
        assert log_psnr(p, g) == whole_image_log_psnr(p, g)


def _test_card(shape=(64, 64)):
    ys, xs = np.mgrid[0:shape[0], 0:shape[1]]
    card = 128 + 100 * np.sin(xs / 3.0) * np.cos(ys / 5.0)
    return card.astype(np.float64)


def test_ssim_identity():
    card = _test_card()
    assert ssim(card, card) == pytest.approx(1.0, abs=1e-12)


def test_ssim_negative_image_far_from_one():
    card = _test_card()
    assert ssim(card, 255.0 - card) < 0.1


def reference_ssim(x, y, data_range=255.0, sigma=1.5):
    """Brute-force SSIM in scikit-image's convention (gaussian_weights=True,
    use_sample_covariance=False): at every pixel whose window lies inside the
    image, Gaussian-weighted means and population (co)variances taken
    directly over the window, then the mean of the SSIM map."""
    radius = int(3.5 * sigma + 0.5)  # scipy's gaussian_filter, truncate=3.5
    t = np.arange(-radius, radius + 1)
    g = np.exp(-0.5 * (t / sigma) ** 2)
    window = np.outer(g, g) / np.outer(g, g).sum()
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    values = []
    for i in range(radius, x.shape[0] - radius):
        for j in range(radius, x.shape[1] - radius):
            px = x[i - radius:i + radius + 1, j - radius:j + radius + 1]
            py = y[i - radius:i + radius + 1, j - radius:j + radius + 1]
            mx, my = (window * px).sum(), (window * py).sum()
            vx = (window * (px - mx) ** 2).sum()
            vy = (window * (py - my) ** 2).sum()
            cxy = (window * (px - mx) * (py - my)).sum()
            values.append((2 * mx * my + c1) * (2 * cxy + c2)
                          / ((mx ** 2 + my ** 2 + c1) * (vx + vy + c2)))
    return float(np.mean(values))


def test_ssim_matches_reference_implementation():
    rng = np.random.default_rng(16)
    a = rng.uniform(0, 255, (48, 48))
    b = np.clip(a + rng.normal(0, 20, a.shape), 0, 255)
    assert ssim(a, b) == pytest.approx(reference_ssim(a, b), abs=1e-7)
    card = _test_card()
    neg = 255.0 - card
    assert ssim(card, neg) == pytest.approx(reference_ssim(card, neg), abs=1e-7)


SSIM_SHAPES = [(512, 1024), (120, 160), (11, 11), (11, 300), (300, 11)]
# taken with scipy.ndimage.correlate1d as the filter, before the numpy one
SSIM_PINNED = [0.965453745352444, 0.9658535196210182, 0.9469383767791081,
               0.9648279865051534, 0.964816841798957]


@pytest.mark.parametrize("index", range(len(SSIM_SHAPES)),
                         ids=["x".join(map(str, shape)) for shape in SSIM_SHAPES])
def test_ssim_pinned(index):
    rng = np.random.default_rng(700 + index)
    a = rng.uniform(0, 255, SSIM_SHAPES[index])
    b = np.clip(a + rng.normal(0, 20, a.shape), 0, 255)
    assert ssim(a, b) == SSIM_PINNED[index]


def test_gaussian_taps_are_exactly_symmetric():
    # the filter sums mirrored taps in pairs, which needs w[i] == w[-1 - i]
    taps = losses._gaussian_taps(11, 1.5)
    assert np.array_equal(taps, taps[::-1])


def full_copy_preview_ssim(a, b):
    """preview_ssim with the scaled and clamped images as full-size copies."""
    x, y = (np.asarray(v, dtype=np.float64) for v in (a, b))
    scale = 1.0 / max(float(y.max()), 1e-30)
    pa = exposure_preview(HdrImage(np.clip(x * scale, 0, None)), 0.0, 10.0)
    pb = exposure_preview(HdrImage(y * scale), 0.0, 10.0)
    return ssim(channel_mean(pa), channel_mean(pb))


def _outcome(fn, *args):
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return fn(*args)
        except (ValueError, OverflowError) as exc:
            return type(exc), str(exc)


@pytest.mark.parametrize("shape", [(11, 11, 3), (40, 300, 3), (64, 1024, 3)])
def test_preview_ssim_matches_full_copy_recipe(shape):
    # a has negative values to clamp; (64, 1024) runs four row bands
    rng = np.random.default_rng(shape[0])
    a = rng.normal(0.3, 1.0, shape) * rng.lognormal(0.0, 2.0, shape)
    b = rng.lognormal(0.0, 2.0, shape)
    assert preview_ssim(a, b) == full_copy_preview_ssim(a, b)


def _bad_pair(case):
    rng = np.random.default_rng(31)
    a, b = rng.lognormal(0.0, 1.0, (2, 50, 1024, 3))  # three row bands
    if case == "a-nan-last-band":
        a[-1, -1, 0] = np.nan
    elif case == "a-inf":
        a[30, 5, 1] = np.inf
    elif case == "a-overflows-when-scaled":
        a[45, 0, 0] = 1e300
        b *= 1e-20
    elif case == "b-negative-first-nan-last-band":
        b[0, 0, 0] = -1.0
        b[-1, 3, 2] = np.nan
    elif case == "b-negative-last-band":
        b[-1, -1, 2] = -0.5
    elif case == "two-dimensional":
        a, b = a[..., 0], b[..., 0]
    return a, b


@pytest.mark.parametrize("case", ["valid", "a-nan-last-band", "a-inf", "a-overflows-when-scaled",
                                  "b-negative-first-nan-last-band", "b-negative-last-band",
                                  "two-dimensional"])
def test_preview_ssim_errors_match_full_copy_recipe(case):
    # the same exception and message, checked in the same order: shape, the
    # scaled a, then the scaled b
    a, b = _bad_pair(case)
    got = _outcome(preview_ssim, a, b)
    assert got == _outcome(full_copy_preview_ssim, a, b)
    if case != "valid":
        assert isinstance(got, tuple)


class RowCountingArray(np.ndarray):
    """An input image that records the rows of each row-slice read of
    itself; its views and results, flat ones included, record nothing."""

    rows = None

    def __getitem__(self, key):
        if self.rows is not None and isinstance(key, slice):
            self.rows.extend(range(self.shape[0])[key])
        return super().__getitem__(key)


@pytest.mark.parametrize("compare", [preview_ssim, metric_report, compare_renders],
                         ids=["preview_ssim", "metric_report", "compare_renders"])
def test_each_metric_preview_reads_its_bands_once(compare):
    # (64, 1024) runs four preview bands; the previews read row slices of
    # the inputs, and log_psnr and the log difference read flat ranges of
    # their flattened views, which are not counted
    pair = [a.view(RowCountingArray) for a in random_pair(27, (64, 1024, 3))]
    for a in pair:
        a.rows = []
    compare(*pair)
    assert [a.rows for a in pair] == [list(range(64))] * 2


def test_metric_report_keys_and_self_values():
    gt = HdrImage(np.abs(_test_card()[..., None]).repeat(3, axis=2).astype(np.float32) / 64.0)
    report = metric_report(gt, gt)
    assert set(report) == {"si_mse", "log_psnr", "ssim", "kappa"}
    assert report["si_mse"] == 0.0
    assert report["ssim"] == pytest.approx(1.0, abs=1e-12)
    assert report["log_psnr"] == LOG_PSNR_CAP_DB
    assert report["kappa"] == pytest.approx(1.0, abs=1e-12)


def test_losses_permutation_invariant():
    pred, gt = random_pair(17, shape=(6, 6, 3))
    perm = np.random.default_rng(18).permutation(36)
    ps = pred.reshape(36, 3)[perm].reshape(6, 6, 3)
    gs = gt.reshape(36, 3)[perm].reshape(6, 6, 3)
    assert scale_invariant_loss(ps, gs) == pytest.approx(
        scale_invariant_loss(pred, gt), rel=1e-12)


# --- bounded temporaries ------------------------------------------------------

def whole_image_correlate_nearest(img, taps, axis):
    """The SSIM filter on a whole image: edge padding, then the taps in
    correlate1d's order."""
    half = len(taps) // 2
    n = img.shape[axis]
    widths = [(0, 0)] * img.ndim
    widths[axis] = (half, half)
    padded = np.pad(img, widths, mode="edge")

    def shifted(offset):
        return padded[(slice(None),) * axis + (slice(half + offset, half + offset + n),)]

    out = shifted(0) * taps[half]
    pair = np.empty_like(out)
    for j in range(half, 0, -1):
        np.add(shifted(-j), shifted(j), out=pair)
        pair *= taps[half - j]
        out += pair
    return out


def whole_image_ssim(a, b, data_range=255.0, k1=0.01, k2=0.03, win_size=11, sigma=1.5):
    """ssim with every statistic a full-size image."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    pad = win_size // 2
    taps = losses._gaussian_taps(win_size, sigma)

    def smooth(img):
        return whole_image_correlate_nearest(whole_image_correlate_nearest(img, taps, 0), taps, 1)

    mu_x = smooth(x)
    mu_y = smooth(y)
    var_x = smooth(x * x) - mu_x ** 2
    var_y = smooth(y * y) - mu_y ** 2
    cov = smooth(x * y) - mu_x * mu_y
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    s = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
        (mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)
    )
    return float(s[pad:-pad, pad:-pad].mean())


# 64 rows of the map per band at width 1024: heights 74 and 138 end a band
@pytest.mark.parametrize("shape", [(11, 11), (12, 40), (700, 30), (512, 1024),
                                   (73, 1024), (75, 1024), (137, 1024), (139, 1024)])
def test_banded_ssim_is_the_whole_image_ssim(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    a = rng.uniform(0, 255, shape)
    b = np.clip(a + rng.normal(0, 20, shape), 0, 255)
    assert ssim(a, b) == whole_image_ssim(a, b)
    assert ssim(a.astype(np.float32), b) == whole_image_ssim(a.astype(np.float32), b)
    c, d = rng.lognormal(0.0, 1.0, (2,) + shape)
    assert ssim(c, d) == whole_image_ssim(c, d)


def copying_metric_report(pred, gt, ldr=None, eps=1e-6):
    """metric_report with float64 copies of the inputs and of every step."""
    p, g = (np.asarray(v, dtype=np.float64) for v in (pred, gt))
    d = np.log(p + eps) - np.log(g + eps)
    k = float(math.exp(-d.mean()))
    if ldr is None:
        p_cmp, g_cmp = p * k, g
    else:
        s = 255.0 / float(g.flat[int(np.argmax(np.asarray(ldr, dtype=np.float64)))])
        p_cmp, g_cmp = p * (k * s), g * s
    return {"si_mse": float(d.var()), "log_psnr": whole_image_log_psnr(p_cmp, g_cmp, eps),
            "ssim": full_copy_preview_ssim(p_cmp, g_cmp), "kappa": k}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("anchored", [False, True])
def test_metric_report_matches_the_copying_recipe(dtype, anchored):
    # (48, 1024) runs three preview bands and one SSIM band
    pred, gt = (v.astype(dtype) for v in random_pair(23, (48, 1024, 3)))
    ldr = None
    if anchored:
        ldr = np.random.default_rng(24).uniform(0.0, 1.0, gt.shape).astype(np.float32)
    assert metric_report(pred, gt, ldr) == copying_metric_report(pred, gt, ldr)
    assert metric_report(pred, gt, ldr, eps=1e-3) == copying_metric_report(pred, gt, ldr, 1e-3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("anchored", [False, True])
def test_banded_metrics_are_the_whole_image_formulas(dtype, anchored):
    # 300x401x3 values make several exact-sum leaves and a short last band
    pred, gt = (v.astype(dtype) for v in random_pair(25, (300, 401, 3)))
    ldr = None
    if anchored:
        ldr = np.random.default_rng(26).uniform(0.0, 1.0, gt.shape).astype(np.float32)
    assert metric_report(pred, gt, ldr) == copying_metric_report(pred, gt, ldr)
    assert log_psnr(pred, gt) == whole_image_log_psnr(pred, gt)
    assert preview_ssim(pred, gt) == full_copy_preview_ssim(pred, gt)


def test_preview_ssim_of_float32_is_that_of_float64_copies():
    # scaled by 4 in float32, a's 3e38 would overflow to inf
    rng = np.random.default_rng(32)
    a, b = rng.lognormal(0.0, 1.0, (2, 40, 64, 3)).astype(np.float32)
    b /= 4 * b.max()
    a[3, 5, 1] = 3e38
    assert preview_ssim(a, b) == preview_ssim(a.astype(np.float64), b.astype(np.float64))


def test_ssim_memory_at_dataset_size():
    # Measured here: 8.7 MiB for two 512x1024 images, against 36.2 MiB with
    # whole-image statistics. The bound leaves 15% over the measured peak.
    rng = np.random.default_rng(700)
    a = rng.uniform(0, 255, (512, 1024))
    b = np.clip(a + rng.normal(0, 20, a.shape), 0, 255)
    tracemalloc.start()
    try:
        ssim(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_metric_report_float32_memory_at_dataset_size():
    # Measured here on float32 1024x512 images (numpy 2.4): 16.7 MiB, the
    # two float64 channel means that SSIM compares, its (H, W) map and one
    # band of its statistics, against 19.7 MiB while both uint8 previews
    # stayed alive through the SSIM. The bound leaves 15% over the peak.
    pred, gt = (HdrImage(a.astype(np.float32)) for a in random_pair(19, (512, 1024, 3)))
    tracemalloc.start()
    try:
        metric_report(pred, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19.2 * 2 ** 20
