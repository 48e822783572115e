import inspect
import math
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdrkit.image
import hdrkit.render as render_mod
from hdrkit.image import _BAND_VALUES, HdrImage, _row_bands
from hdrkit.pano import apply_bilinear_map, equirect_map
from hdrkit.render import (
    MAX_CAMERA_PIXELS,
    MAX_SCENE_LENGTH,
    Material,
    OrthoCamera,
    SceneConfig,
    SceneParseError,
    Sphere,
    compare_renders,
    default_scene_text,
    diffuse_irradiance,
    parse_scene,
    render,
    render_many,
)

L0 = 0.75


def uniform_env(value=L0, shape=(256, 512, 3)):
    return HdrImage(np.full(shape, value, dtype=np.float32))


def random_normals(count, seed=0):
    rng = np.random.default_rng(seed)
    n = rng.normal(size=(count, 3))
    return n / np.linalg.norm(n, axis=1, keepdims=True)


# --- scene parsing -------------------------------------------------------------

def test_parse_default_scene():
    scene = parse_scene(default_scene_text())
    assert scene.camera.width == 160
    kinds = [s.material.kind for s in scene.spheres]
    assert kinds == ["diffuse", "mirror", "glossy", "glossy"]


def test_parse_plane_and_background():
    scene = parse_scene("camera 8 8 1\nbackground off\n")
    assert scene.background is False
    # the ground plane never shaded: it is an unknown directive
    with pytest.raises(SceneParseError, match="line 2: unknown directive 'plane'"):
        parse_scene("camera 8 8 1\nplane 0.5 0.5 0.5\n")


def test_render_module_is_not_shadowed():
    import hdrkit
    import hdrkit.render as m

    assert inspect.ismodule(m) and m is hdrkit.render
    assert callable(m.render) and callable(m.render_many)


def test_parse_errors():
    with pytest.raises(SceneParseError):
        parse_scene("sphere 0 0 0 1 diffuse 1 1 1\n")  # no camera
    with pytest.raises(SceneParseError):
        parse_scene("camera 8 8 1\nsphere 0 0 0 1 velvet\n")
    with pytest.raises(SceneParseError):
        parse_scene("camera 8 8 1\nwobble 3\n")
    with pytest.raises(SceneParseError):
        parse_scene("camera 8 8 1\nsphere 0 0\n")


@pytest.mark.parametrize("line, message", [
    ("background onn", "background must be on or off, not 'onn'"),
    ("background", "bad arguments for 'background': list index out of range"),
    ("background on off", "unexpected 'off' after 'background'"),
    ("camera 16 12 3 0 0.9 7 8", "unexpected '7 8' after 'camera'"),
    ("sphere 0 0 0.9 0.9 mirror glossy 3", "unexpected 'glossy 3' after 'sphere'"),
    ("sphere 0 0 0.9 0.9 diffuse 0.5 0.5 0.5 0.5", "unexpected '0.5' after 'sphere'"),
    ("sphere 0 0 0.9 0.9 glossy 8 0.7 0.7 0.7 1", "unexpected '1' after 'sphere'"),
])
def test_parse_rejects_typos_and_extra_tokens(line, message):
    with pytest.raises(SceneParseError, match=f"^line 2: {message}$"):
        parse_scene(f"camera 16 12 4.5 0 0.9\n{line}\n")


@pytest.mark.parametrize("text, message", [
    ("camera 10 10\ncamera 20 30\n", "line 2: second 'camera' line (the first is line 1)"),
    ("camera 8 8 1\nbackground off\n# on after all\nbackground on\n",
     "line 4: second 'background' line (the first is line 2)"),
    ("background on\ncamera 8 8\nBACKGROUND on\n",
     "line 3: second 'background' line (the first is line 1)"),
])
def test_parse_rejects_a_repeated_camera_or_background(text, message):
    # a second line used to replace the first silently
    with pytest.raises(SceneParseError, match=f"^{re.escape(message)}$"):
        parse_scene(text)


@pytest.mark.parametrize("word", ["on", "ON", "true", "1", "yes", "off", "Off", "false", "0", "no"])
def test_background_spellings(word):
    scene = parse_scene(f"camera 8 8 1\nbackground {word}  # a comment\n")
    assert scene.background is (word.lower() in ("on", "true", "1", "yes"))


def test_benchmark_scene_parses():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    scene = parse_scene(inputs.SCENE_TEXT)
    assert scene == parse_scene(default_scene_text())


@pytest.mark.parametrize("line", [
    "sphere 1.1 0 0.9 nan diffuse 0.5 0.5 0.5",
    "sphere 1.1 0 0.9 inf diffuse 0.5 0.5 0.5",
    "sphere nan 0 0.9 0.9 mirror",
    "sphere 0 -inf 0.9 0.9 mirror",
    "sphere 0 0 inf 0.9 mirror",
    "sphere 0 0 0.9 0.9 glossy nan 0.9 0.9 0.9",
    "sphere 0 0 0.9 0.9 glossy inf 0.9 0.9 0.9",
    "camera 16 12 nan 0 0.9",
    "camera 16 12 inf 0 0.9",
    "camera 16 12 4.5 nan 0.9",
    "camera 16 12 4.5 0 -inf",
])
def test_parse_rejects_non_finite_numbers(line):
    text = f"camera 16 12 4.5 0 0.9\n{line}\n"
    with pytest.raises(SceneParseError, match="^line 2: "):
        parse_scene(text)


def test_material_validation():
    with pytest.raises(ValueError):
        Material("diffuse", albedo=(1.5, 0, 0))
    with pytest.raises(ValueError):
        Material("glossy", exponent=0.5)
    with pytest.raises(ValueError):
        Sphere((0, 0, 0), -1.0, Material("mirror"))
    with pytest.raises(ValueError):
        OrthoCamera(0, 8)


@pytest.mark.parametrize("camera", ["camera 1000000000 1000000000 1 0 0.9",
                                    "camera 2049 2048 1 0 0.9",
                                    "camera 4194305 1 1 0 0.9"])
def test_parse_caps_the_camera_pixel_count(camera):
    # refused by the parser, before anything the size of the camera exists
    assert MAX_CAMERA_PIXELS == 2048 * 2048
    with pytest.raises(SceneParseError, match="^line 2: .*more than the 4194304 allowed"):
        parse_scene(f"background on\n{camera}\n")


def test_camera_at_the_pixel_cap_parses():
    assert parse_scene("camera 2048 2048 1 0 0.9\n").camera.width == 2048
    assert parse_scene("camera 1 4194304 1 0 0.9\n").camera.height == 4194304


@pytest.mark.parametrize("line", [
    "sphere 0 0 0.9 1e200 mirror",
    "sphere 0 0 0.9 1.1e100 mirror",
    "sphere -1e-170 0 0 1e-300 diffuse 1 1 1",
    "sphere 0 0 0.9 9e-101 mirror",
    "sphere 1e101 0 0.9 1 mirror",
    "sphere 0 -2e100 0.9 1 mirror",
    "camera 16 12 1e300 0 0.9",
    "camera 16 12 4.5 -1e200 0.9",
    "camera 16 12 4.5 0 1.5e100",
])
def test_parse_bounds_scene_lengths(line):
    with pytest.raises(SceneParseError, match="^line 2: "):
        parse_scene(f"camera 16 12 4.5 0 0.9\n{line}\n")


def test_scene_lengths_at_the_bounds_render_finite():
    big, small = MAX_SCENE_LENGTH, 1 / MAX_SCENE_LENGTH
    scenes = [
        f"camera 1 2048 {big} {-big} {big}\nsphere {big} {big} {-big} {big} diffuse 1 1 1\n",
        f"camera 2048 1 {big} {big} {-big}\nsphere {-big} 0 {big} {big} glossy 8 1 1 1\n",
        f"camera 1 1 1 0 0\nsphere -1e-170 0 0 {small} diffuse 1 1 1\n",
    ]
    env = uniform_env(shape=(8, 16, 3))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for text in scenes:
            assert np.isfinite(render(parse_scene(text), env).data).all()


SCENE_TOKENS = ["nan", "inf", "-inf", "1e400", "1e-400", "-1", "0", "9" * 30, "#", "\n",
                "camera", "sphere", "background", "diffuse", "mirror", "glossy", "velvet",
                "on", "1_0", "0x10", "\0", ""]
SCENE_EDITS = st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                                 st.integers(0, 10 ** 6), st.sampled_from(SCENE_TOKENS)),
                       min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(SCENE_EDITS)
def test_token_edits_of_a_scene_parse_or_raise_scene_parse_error(edits):
    # parsed only: a fuzzed scene may be valid and as large as the camera cap
    tokens = default_scene_text(16, 12).replace("\n", " \n ").split(" ")
    for kind, at, token in edits:
        at %= len(tokens) + 1
        if kind == "set" and at < len(tokens):
            tokens[at] = token
        elif kind == "insert":
            tokens.insert(at, token)
        elif kind == "delete" and at < len(tokens):
            del tokens[at]
    try:
        scene = parse_scene(" ".join(tokens))
    except SceneParseError:
        return
    assert isinstance(scene, SceneConfig)


# --- irradiance ------------------------------------------------------------------

def test_uniform_irradiance_matches_analytic():
    env = uniform_env()
    E = diffuse_irradiance(random_normals(64), env)
    assert np.abs(E / (np.pi * L0) - 1.0).max() < 0.01


def test_backfacing_zenith_light():
    env_arr = np.zeros((64, 128, 3), dtype=np.float32)
    env_arr[:4] = 10.0  # zenith cap only
    env = HdrImage(env_arr)
    E = diffuse_irradiance(np.array([[0.0, 0.0, -1.0]]), env)
    assert np.all(E == 0.0)


def reference_irradiance(normals, env):
    """The untiled formula: every texel of the environment at once against a
    small block of normals, clamped, then one product with the weighted
    radiance."""
    a = np.asarray(env, dtype=np.float64)
    h, w = a.shape[:2]
    theta = np.pi * (np.arange(h) + 0.5) / h
    phi = 2.0 * np.pi * (np.arange(w) + 0.5) / w - np.pi
    sin_t = np.sin(theta)
    dirs = np.stack(np.broadcast_arrays(sin_t[:, None] * np.cos(phi)[None, :],
                                        sin_t[:, None] * np.sin(phi)[None, :],
                                        np.cos(theta)[:, None]), axis=-1).reshape(-1, 3)
    weighted = (a * ((2.0 * np.pi / w) * (np.pi / h) * sin_t)[:, None, None]).reshape(-1, 3)
    out = np.empty((len(normals), 3))
    for start in range(0, len(normals), 32):
        cos = np.maximum(normals[start:start + 32] @ dirs.T, 0.0)
        out[start:start + 32] = cos @ weighted
    return out


@pytest.mark.parametrize("shape", [(37, 75, 3), (256, 512, 3)])
def test_tiled_irradiance_matches_untiled_sum(shape):
    # neither size is a multiple of the normal or texel tile
    rng = np.random.default_rng(11)
    env = rng.uniform(0.0, 4.0, shape)
    n = random_normals(1000, seed=12)
    np.testing.assert_allclose(diffuse_irradiance(n, env), reference_irradiance(n, env),
                               rtol=1e-12, atol=0)


def test_irradiance_stack_matches_single_environments():
    rng = np.random.default_rng(13)
    envs = rng.uniform(0.0, 2.0, (3, 32, 64, 3))
    n = random_normals(600, seed=14).reshape(20, 30, 3)
    stacked = diffuse_irradiance(n, envs)
    assert stacked.shape == (3, 20, 30, 3)
    for k in range(3):
        assert np.array_equal(stacked[k], diffuse_irradiance(n, envs[k]))


def irradiance_peak(normals, env):
    tracemalloc.start()
    try:
        diffuse_irradiance(normals, env)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_irradiance_memory_independent_of_environment_size():
    # the untiled sum peaked at 808 MB here: a 512 x 131072 cosine block.
    # A table of every texel's direction and weighted radiance peaked at
    # 9.0 MiB at 256 x 512 and 36.0 MiB at 512 x 1024; texel data made one
    # band of tiles at a time peaks at 2.0 MiB at both (numpy 2.4)
    n = random_normals(2048, seed=15)
    peak = irradiance_peak(n, uniform_env().data)
    assert peak < 32 * 2 ** 20
    assert irradiance_peak(n, uniform_env(shape=(512, 1024, 3)).data) - peak < 2 ** 20


def test_irradiance_memory_grows_only_by_each_normals_sums():
    # arcs gathered for all normals of a band at once grew by 1.7 KiB per
    # normal (8 rows x 3 gathers x 9 float64 values); gathered a chunk of
    # normals at a time they grow by 104 bytes per normal, its own sums and
    # result (numpy 2.4). The bound leaves 15% over that.
    env = uniform_env().data
    small = irradiance_peak(random_normals(2048, seed=15), env)
    assert irradiance_peak(random_normals(20000, seed=15), env) - small < 120 * (20000 - 2048)


def test_irradiance_linearity():
    rng = np.random.default_rng(4)
    e1 = rng.uniform(0, 2, (32, 64, 3))
    e2 = rng.uniform(0, 3, (32, 64, 3))
    n = random_normals(16, seed=5)
    lhs = diffuse_irradiance(n, e1 + e2)
    rhs = diffuse_irradiance(n, e1) + diffuse_irradiance(n, e2)
    assert np.allclose(lhs, rhs, rtol=1e-9)


def test_irradiance_energy_bound():
    rng = np.random.default_rng(6)
    env = rng.uniform(0, 5, (32, 64, 3))
    n = random_normals(32, seed=7)
    E = diffuse_irradiance(n, env)
    # diffuse radiance E/pi never exceeds the max environment value
    assert np.all(E / np.pi <= env.max() * (1 + 1e-9))


AXES = np.concatenate([np.eye(3), -np.eye(3)])


def weighted_total(env):
    """Per channel, the environment's radiance weighted by texel solid angle."""
    h, w = env.shape[:2]
    d_omega = (2.0 * np.pi / w) * (np.pi / h) * np.sin(np.pi * (np.arange(h) + 0.5) / h)
    return (env * d_omega[:, None, None]).sum(axis=(0, 1))


@pytest.mark.parametrize("bright", [1e6, 1e12])
@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 9000), (37, 75),
                                   (256, 512)])
def test_arc_sums_match_the_clamped_cosine_sum(shape, bright):
    # rounding of the prefix differences stays within 1e-13 of the
    # environment's whole weighted radiance, even beside one huge texel
    rng = np.random.default_rng([31, *shape])
    env = rng.lognormal(0.0, 1.0, shape + (3,))
    env[rng.integers(shape[0]), rng.integers(shape[1])] = bright
    n = np.concatenate([AXES, random_normals(200, seed=32)])
    err = np.abs(diffuse_irradiance(n, env) - reference_irradiance(n, env))
    assert np.all(err <= 1e-13 * weighted_total(env))


def test_irradiance_is_independent_of_how_normals_are_cut():
    rng = np.random.default_rng(33)
    env = rng.lognormal(0.0, 1.0, (37, 75, 3))
    env[5, 60] = 1e9
    n = np.concatenate([AXES, random_normals(1600, seed=34)])
    whole = diffuse_irradiance(n, env)
    singles = np.concatenate([diffuse_irradiance(n[i:i + 1], env) for i in range(0, 60)])
    assert singles.tobytes() == whole[:60].tobytes()
    cuts = [0, 1, 8, 300, 813, 1100, len(n)]  # no cut but the ends is a multiple of 196
    parts = [diffuse_irradiance(n[a:b], env) for a, b in zip(cuts, cuts[1:])]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("band_values", [977, 2400])
def test_irradiance_bytes_do_not_move_with_the_band_size(monkeypatch, band_values):
    # the bands of environment rows and chunks of normals are _row_bands:
    # 977 values cut a 64-wide environment into one-row bands and its
    # normals into chunks of 108 (one environment) or 54 (two), 2400 into
    # bands of four or two rows and chunks of 66; -x normals' arcs cross the
    # seam. The default takes the environment whole.
    envs = random_envs(27)
    n = np.concatenate([AXES, random_normals(400, seed=28)])
    scene = parse_scene(MULTI_CHUNK_SCENE)

    def made():
        return ([diffuse_irradiance(n, envs[0]).tobytes(),
                 diffuse_irradiance(n, np.stack([e.data for e in envs])).tobytes()]
                + [r.data.tobytes() for r in render_many(scene, envs[:1]) + render_many(scene, envs)])

    default = made()
    monkeypatch.setattr(hdrkit.image, "_BAND_VALUES", band_values)
    assert made() == default


def test_non_finite_normals_give_non_finite_irradiance():
    # as the clamped cosines did, without a warning from the arc indices
    env = np.random.default_rng(37).lognormal(0.0, 1.0, (8, 16, 3))
    n = np.array([[np.nan, 0.0, 0.0], [0.0, np.nan, 1.0], [np.inf, 0.0, 0.0], [0.0, 0.0, 1.0]])
    E = diffuse_irradiance(n, env)
    assert np.isnan(E[:2]).all() and np.isinf(E[2]).all() and np.isfinite(E[3]).all()


def test_unlit_texels_give_exact_zeros():
    # a bright patch around phi = 0 (+x) in a black environment: every normal
    # whose lit half-space misses the patch sums only zeros, exactly. The lit
    # arcs of -x wrap the seam at phi = +-pi.
    h, w = 64, 128
    env = np.zeros((h, w, 3))
    env[20:44, 56:72] = np.random.default_rng(35).lognormal(3.0, 1.0, (24, 16, 3))
    theta = np.pi * (np.arange(h) + 0.5) / h
    phi = 2.0 * np.pi * (np.arange(w) + 0.5) / w - np.pi
    dirs = np.stack(np.broadcast_arrays(np.sin(theta)[:, None] * np.cos(phi),
                                        np.sin(theta)[:, None] * np.sin(phi),
                                        np.cos(theta)[:, None]), axis=-1)
    lit_patch = dirs[env[..., 0] > 0]
    n = np.concatenate([[[-1.0, 0.0, 0.0]], random_normals(400, seed=36)])
    dark = n[(n @ lit_patch.T).max(axis=1) < 0]
    assert len(dark) > 50 and dark[0, 0] == -1.0
    assert np.all(diffuse_irradiance(dark, env) == 0.0)
    assert np.all(diffuse_irradiance(-dark, env) > 0.0)


# --- rendering -------------------------------------------------------------------

def test_mirror_sphere_uniform_env_exact():
    scene = parse_scene("camera 48 48 1.5 0 0\nsphere 0 0 0 1 mirror\nbackground off\n")
    img = render(scene, uniform_env())
    hit = img.data[24, 24]
    assert np.all(hit == np.float32(L0))
    # every sphere pixel is exactly L0; background is 0
    sphere_mask = np.any(img.data > 0, axis=2)
    assert np.all(img.data[sphere_mask] == np.float32(L0))


def test_tinted_mirror_is_albedo_times_untinted():
    # power-of-two albedos scale float32 values exactly
    env = random_envs(27, count=1, shape=(32, 64, 3))[0]
    albedo = (0.5, 0.25, 1.0)

    def mirror_render(material):
        scene = SceneConfig(OrthoCamera(32, 32, 1.5, 0.0, 0.0),
                            (Sphere((0.0, 0.0, 0.0), 1.0, material),), background=False)
        return render(scene, env).data

    tinted = mirror_render(Material("mirror", albedo))
    untinted = mirror_render(Material("mirror"))
    assert untinted.any()
    assert tinted.tobytes() == (untinted * np.float32(albedo)).tobytes()


def test_diffuse_sphere_uniform_env():
    scene = parse_scene("camera 48 48 1.5 0 0\nsphere 0 0 0 1 diffuse 0.8 0.8 0.8\nbackground off\n")
    img = render(scene, uniform_env())
    sphere_mask = np.any(img.data > 0, axis=2)
    vals = img.data[sphere_mask]
    assert np.abs(vals / (0.8 * L0) - 1.0).max() < 0.01


def test_glossy_sphere_uniform_env():
    scene = parse_scene("camera 48 48 1.5 0 0\nsphere 0 0 0 1 glossy 32 0.9 0.9 0.9\nbackground off\n")
    img = render(scene, uniform_env())
    sphere_mask = np.any(img.data > 0, axis=2)
    vals = img.data[sphere_mask]
    assert np.abs(vals / (0.9 * L0) - 1.0).max() < 1e-6


def test_empty_scene_background():
    scene_on = parse_scene("camera 16 12 1\n")
    env_arr = np.zeros((64, 128, 3), dtype=np.float32)
    env_arr[40:48] = 3.0  # band around the -y viewing direction's latitude? no: rows are theta
    env = HdrImage(env_arr)
    img = render(scene_on, env)
    # all rays share the direction (0,-1,0); every pixel equals that lookup
    assert np.all(img.data == img.data[0, 0])
    scene_off = parse_scene("camera 16 12 1\nbackground off\n")
    img_off = render(scene_off, env)
    assert np.all(img_off.data == 0.0)


def test_nearest_sphere_wins():
    scene = parse_scene(
        "camera 32 32 1.5 0 0\nbackground off\n"
        "sphere 0 0 0 1 diffuse 1 1 1\n"
        "sphere 0 5 0 1 mirror\n"  # nearer to the camera at y=+inf
    )
    img = render(scene, uniform_env())
    center = img.data[16, 16]
    assert np.all(center == np.float32(L0))  # mirror, not diffuse


def test_render_determinism():
    scene = parse_scene(default_scene_text(64, 48))
    rng = np.random.default_rng(8)
    env = HdrImage(rng.uniform(0.05, 4.0, (64, 128, 3)).astype(np.float32))
    a = render(scene, env)
    b = render(scene, env)
    assert np.array_equal(a.data, b.data)


def test_render_many_matches_single_renders():
    scene = parse_scene(default_scene_text())
    rng = np.random.default_rng(16)
    e1 = HdrImage(rng.uniform(0.05, 4.0, (64, 128, 3)).astype(np.float32))
    e2 = HdrImage(rng.lognormal(0.0, 1.5, (64, 128, 3)).astype(np.float32))
    both = render_many(scene, [e1, e2])
    assert len(both) == 2
    for made, env in zip(both, (e1, e2)):
        assert made.data.tobytes() == render(scene, env).data.tobytes()


def test_render_many_environments_are_independent():
    # one interleaved stack of a float32, a float64 and a transposed view
    # renders each environment as it renders alone
    scene = parse_scene(default_scene_text(64, 48))
    rng = np.random.default_rng(17)
    envs = [rng.lognormal(0.0, 1.0, (32, 64, 3)).astype(np.float32),
            rng.uniform(0.05, 4.0, (32, 64, 3)),
            rng.lognormal(0.0, 1.5, (64, 32, 3)).astype(np.float32).transpose(1, 0, 2)]
    assert not envs[2].flags.c_contiguous
    envs[1][2:5, 10:20] = 60.0
    made = render_many(scene, envs)
    assert len(made) == 3
    for image, env in zip(made, envs):
        assert image.data.tobytes() == render(scene, env).data.tobytes()


def test_render_many_memory_at_dataset_size():
    # two 512 x 256 float32 environments under the default scene: the render
    # peaked 17.6 MiB above its inputs with a table of every texel's
    # direction and weighted radiance, 7.7-7.9 MiB with texel data made in
    # bands and 512-pixel tasks on a two-worker pool, and 6.1 MiB with each
    # sphere shaded in one call on the calling thread (numpy 2.4); the bound
    # leaves 15% over that peak
    scene = parse_scene(default_scene_text())
    rng = np.random.default_rng(18)
    envs = [rng.lognormal(0.0, 1.0, (256, 512, 3)).astype(np.float32) for _ in range(2)]
    tracemalloc.start()
    try:
        render_many(scene, envs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.1 * 2 ** 20


# every sphere covers more than 512 pixels; the last glossy sphere
# is cut by the diffuse sphere in front of it
MULTI_CHUNK_SCENE = """camera 96 72 3 0 1
sphere -1.9 0 0.1 1 diffuse 0.8 0.7 0.6
sphere 0 0 0.1 1 glossy 16 0.9 0.9 0.9
sphere 1.9 0 0.1 1 mirror
sphere -1.1 1 2.1 1 diffuse 0.5 0.6 0.7
sphere 0.3 0 2.1 1 glossy 4 0.7 0.8 0.9
"""


def random_envs(seed, count=2, shape=(32, 64, 3)):
    rng = np.random.default_rng(seed)
    envs = [rng.uniform(0.05, 4.0, shape).astype(np.float32) for _ in range(count)]
    envs[0][2:5, 10:20] = 60.0
    return [HdrImage(e) for e in envs]


def test_render_many_matches_unchunked_shading():
    # the oracle hit-tests the whole camera and shades each sphere whole,
    # in one piece
    scene = parse_scene(MULTI_CHUNK_SCENE)
    envs = random_envs(21)
    arrs = [e.data.astype(np.float64) for e in envs]
    hits = whole_camera_hits(scene)
    sizes = [len(pixels) for _, pixels, _ in hits]
    assert len(sizes) == 5 and min(sizes) > 512
    assert sizes[4] < sizes[1]  # cut by the sphere in front
    background = equirect_map(render_mod._VIEW_DIR, 64, 32)
    want = np.zeros((2, 72 * 96, 3))
    want[:] = np.stack([apply_bilinear_map(arr, background) for arr in arrs])[:, None]
    stack = render_mod._env_stack(arrs)
    for sphere, pixels, normals in hits:
        want[:, pixels] = render_mod._shade(sphere.material, normals, stack)
    want = np.maximum(want, 0.0).astype(np.float32).reshape(2, 72, 96, 3)
    for made, expected in zip(render_many(scene, envs), want):
        assert made.data.tobytes() == expected.tobytes()


def test_render_many_shading_calls_move_no_byte(monkeypatch):
    # ranges of 300 pixels cut every sphere of the scene into several
    # _hits and _shade calls
    scene = parse_scene(MULTI_CHUNK_SCENE)
    envs = random_envs(25)
    whole = [r.data.tobytes() for r in render_many(scene, envs)]
    monkeypatch.setattr(hdrkit.image, "_BAND_VALUES", 900)
    assert [r.data.tobytes() for r in render_many(scene, envs)] == whole


FRAME_FILLING_SCENE = "camera 384 288 1 0 0\nsphere 0 0 0 2 diffuse 0.8 0.7 0.6\n"


def test_render_many_memory_of_a_frame_filling_sphere():
    # a diffuse sphere filling a 384 x 288 camera under two 32 x 16
    # environments: the render peaks at 9.2 MiB, hit-testing and shading
    # ranges of 21845 pixels into float32 results, against 17.4 MiB with
    # float64 results and the sphere's pixels and normals kept whole and
    # shaded in 32768-pixel calls, and 36.4 MiB in one call, which holds
    # the irradiance sums of every pixel at once (numpy 2.4); the bound
    # leaves 15% over the peak
    scene = parse_scene(FRAME_FILLING_SCENE)
    envs = random_envs(26, shape=(16, 32, 3))
    tracemalloc.start()
    try:
        render_many(scene, envs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.6 * 2 ** 20


def test_render_many_memory_of_a_wide_camera():
    # a diffuse sphere filling a 400000 x 1 camera under two 32 x 16
    # environments: ranges of pixels peak at 15.9 MiB, 9.2 of them the
    # float32 results, against 48.9 MiB with float64 results and a
    # hit test in bands of whole rows (numpy 2.4); the bound leaves 15%
    # over the peak
    scene = parse_scene("camera 400000 1 1 0 0\nsphere 0 0 0 2 diffuse 0.8 0.7 0.6\n")
    envs = random_envs(26, shape=(16, 32, 3))
    tracemalloc.start()
    try:
        render_many(scene, envs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18.3 * 2 ** 20


def whole_camera_hits(scene):
    """(sphere, pixels, normals) per visible sphere, hit-tested on
    whole-camera arrays at once."""
    cam = scene.camera
    w, h = cam.width, cam.height
    xs = cam.center_x + (2.0 * (np.arange(w) + 0.5) / w - 1.0) * cam.span
    span_z = cam.span * h / w
    zs = cam.center_z + (1.0 - 2.0 * (np.arange(h) + 0.5) / h) * span_z
    X, Z = np.meshgrid(xs, zs)
    hit_y = np.full((h, w), -np.inf)
    hit_index = np.full((h, w), -1)
    for si, sphere in enumerate(scene.spheres):
        cx, cy, cz = sphere.center
        rr = sphere.radius ** 2 - (X - cx) ** 2 - (Z - cz) ** 2
        y = np.where(rr >= 0, cy + np.sqrt(np.maximum(rr, 0.0)), -np.inf)
        closer = (rr >= 0) & (y > hit_y)
        hit_y[closer] = y[closer]
        hit_index[closer] = si
    hits = []
    for si, sphere in enumerate(scene.spheres):
        mask = hit_index == si
        if mask.any():
            cx, cy, cz = sphere.center
            normals = np.stack([X[mask] - cx, hit_y[mask] - cy, Z[mask] - cz],
                               axis=-1) / sphere.radius
            hits.append((sphere, np.flatnonzero(mask), normals))
    return hits


@pytest.mark.parametrize("text", [
    default_scene_text(1024, 768),
    MULTI_CHUNK_SCENE,
    # 21845-pixel ranges cut rows and every sphere; the third sphere hides
    # behind the first
    "camera 700 500 2 0.1 0.2\nsphere -0.8 0 0 0.9 diffuse 0.5 0.5 0.5\n"
    "sphere 0.7 1 0.3 1.1 glossy 8 0.9 0.9 0.9\nsphere -0.8 -1 0 0.5 mirror\n"
    "sphere 0.5 -2 -0.2 0.7 mirror\nbackground off\n",
])
def test_banded_hit_test_matches_whole_camera(text):
    scene = parse_scene(text)
    cam = scene.camera
    joined = {}
    for band in _row_bands((cam.height * cam.width, 3)):
        for sphere, pixels, normals in render_mod._hits(cam, scene.spheres, band):
            joined.setdefault(id(sphere), []).append((pixels, normals))
    hits = whole_camera_hits(scene)
    assert len(joined) == len(hits)
    for sphere, pixels, normals in hits:
        parts = joined[id(sphere)]
        got = np.concatenate([p for p, _ in parts])
        assert got.dtype == pixels.dtype and got.tobytes() == pixels.tobytes()
        got = np.concatenate([n for _, n in parts])
        assert got.shape == normals.shape and got.tobytes() == normals.tobytes()


def test_hit_test_memory_is_band_sized():
    # the default scene's geometry at 1024 x 768, its glossy spheres made
    # mirrors, under one 32 x 16 environment: the render peaks at 11.3 MiB,
    # 9.0 of them the float32 result, hit-testing and shading ranges of
    # 21845 pixels, against 49.0 MiB with float64 results and whole-camera
    # sphere plans (numpy 2.4). The bound leaves 15% over that peak.
    text = default_scene_text(1024, 768)
    for glossy in ("glossy 64 0.9 0.9 0.9", "glossy 8 0.7 0.7 0.7"):
        text = text.replace(glossy, "mirror")
    scene = parse_scene(text)
    envs = random_envs(26, count=1, shape=(16, 32, 3))
    tracemalloc.start()
    try:
        render_many(scene, envs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.0 * 2 ** 20


def glossy_plan(exponent):
    # the material and normals of one glossy sphere of more than 2048 pixels
    scene = parse_scene(f"camera 64 64 1 0 0\nsphere 0 0 0 1 glossy {exponent} 0.9 0.8 0.7\n"
                        "background off\n")
    ((sphere, pixels, normals),) = whole_camera_hits(scene)
    assert len(pixels) > 2048
    return sphere.material, normals


def glossy_band(stack):
    # pixels in one band of (pixels, samples, 3K) lookups for a K-environment stack
    return _BAND_VALUES // (math.prod(render_mod.GLOSSY_GRID) * 3 * stack.shape[2])


@pytest.mark.parametrize("exponent", [8, 64])
def test_glossy_bands_match_whole_chunk_formula(exponent):
    arrs = [e.data for e in random_envs(25, shape=(32, 64, 3))]
    stack = render_mod._env_stack(arrs)
    band = glossy_band(stack)
    material, sphere_normals = glossy_plan(exponent)
    for count in (1, band - 1, band, band + 1, 290, 512):
        part = slice(7, 7 + count)
        normals = sphere_normals[part]
        view = render_mod._VIEW_DIR
        reflect = view - 2.0 * (normals @ view)[:, None] * normals
        reflect /= np.linalg.norm(reflect, axis=-1, keepdims=True)
        lookup = equirect_map(render_mod._glossy_dirs(reflect, exponent), 64, 32)
        want = np.stack([np.asarray(material.albedo)
                         * apply_bilinear_map(arr, lookup).mean(axis=1) for arr in arrs])
        got = render_mod._shade(material, normals, stack)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def glossy_shade_peak(plan, stack, count):
    material, normals = plan
    tracemalloc.start()
    try:
        render_mod._shade(material, normals[:count], stack)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_glossy_shading_memory_is_band_sized():
    # a 512-pixel chunk under two 512 x 256 environments peaked at 17.0 MiB
    # with whole-chunk temporaries, 3.9 MiB in bands gathered one environment
    # at a time and 2.0 MiB in bands that gather both at once (numpy 2.4)
    stack = render_mod._env_stack([e.data for e in random_envs(26, shape=(256, 512, 3))])
    plan = glossy_plan(64)
    chunk = glossy_shade_peak(plan, stack, 512)
    assert chunk < 4.44 * 2 ** 20
    # four times the pixels add less than one band's lobe directions
    band_bytes = _BAND_VALUES * 8
    assert glossy_shade_peak(plan, stack, 2048) - chunk < band_bytes


def test_glossy_chunk_peaks_near_one_band():
    # each band's lookup is freed before the next is built: under one
    # environment a 512-pixel chunk peaked 1.34 times one 85-pixel band's
    # peak while the previous band's lookup stayed alive. Under two, a
    # band's gather outweighs a lookup, and a kept lookup does not show.
    stack = render_mod._env_stack([random_envs(26, count=1, shape=(256, 512, 3))[0].data])
    band = glossy_band(stack)
    plan = glossy_plan(64)
    single = glossy_shade_peak(plan, stack, band)
    assert glossy_shade_peak(plan, stack, 512) < 1.15 * single


def test_render_many_starts_no_threads():
    before = threading.active_count()
    render_many(parse_scene(MULTI_CHUNK_SCENE), random_envs(23))
    assert threading.active_count() == before


def test_concurrent_renders_are_exact():
    # renders on several threads at once, as render --jobs runs them, with
    # frequent thread switches: every result is exact
    scene = parse_scene(default_scene_text(32, 24))
    env = random_envs(24, count=1, shape=(16, 32, 3))
    want = render(scene, env[0]).data.tobytes()
    start = threading.Barrier(6)
    results = []

    def worker():
        start.wait(timeout=10)
        results.append(render_many(scene, env)[0].data.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * 6


def test_render_many_of_no_environments_is_empty():
    assert render_many(parse_scene(default_scene_text(32, 24)), []) == []


@pytest.mark.parametrize("shape, message", [
    ((0, 4, 3), "image must be at least 1x1"),
    ((2, 0, 3), "image must be at least 1x1"),
    ((4, 8), r"expected \(height, width, 3\) array"),
], ids=["no-rows", "no-columns", "no-channels"])
def test_an_environment_that_is_no_image_is_refused(shape, message):
    # these used to fail as a RuntimeWarning, a ZeroDivisionError, an
    # IndexError or non-finite sampling coordinates
    env = np.ones(shape)
    with pytest.raises(ValueError, match=message):
        diffuse_irradiance(np.array([[0.0, 0.0, 1.0]]), env)
    with pytest.raises(ValueError, match=message):
        render_many(parse_scene(default_scene_text(8, 6)), [env])


def test_render_many_rejects_mixed_shapes():
    scene = parse_scene(default_scene_text(32, 24))
    with pytest.raises(ValueError, match=r"shape mismatch: \(16, 32, 3\) vs \(32, 64, 3\)"):
        render_many(scene, [uniform_env(shape=(16, 32, 3)), uniform_env(shape=(32, 64, 3))])


def test_render_mirror_symmetry():
    # mirroring the world about the x=0 plane (environment column-flip plus
    # half roll, sphere centers x -> -x) mirrors the render horizontally
    rng = np.random.default_rng(9)
    env_arr = rng.uniform(0.05, 2.0, (64, 128, 3))
    scene = parse_scene(
        "camera 48 32 2.5 0 0\nbackground off\n"
        "sphere -0.9 0 0.3 0.8 diffuse 0.7 0.7 0.7\n"
        "sphere 1.2 0 -0.2 0.6 mirror\n"
    )
    mirrored_scene = parse_scene(
        "camera 48 32 2.5 0 0\nbackground off\n"
        "sphere 0.9 0 0.3 0.8 diffuse 0.7 0.7 0.7\n"
        "sphere -1.2 0 -0.2 0.6 mirror\n"
    )
    w = env_arr.shape[1]
    env_mirrored = np.roll(env_arr[:, ::-1], w // 2, axis=1)
    a = render(scene, env_arr)
    b = render(mirrored_scene, env_mirrored)
    assert np.allclose(b.data, a.data[:, ::-1], rtol=1e-5, atol=1e-7)


# --- compare_renders ----------------------------------------------------------------

def test_compare_identical():
    scene = parse_scene("camera 32 24 1.5 0 0\nsphere 0 0 0 1 mirror\n")
    img = render(scene, uniform_env())
    report = compare_renders(img, img)
    assert report["mse"] == 0.0
    assert report["ssim"] == pytest.approx(1.0, abs=1e-12)


def test_compare_constant_offset_mse():
    a = np.full((24, 32, 3), 0.25)
    b = a + 0.1
    report = compare_renders(a, b)
    assert report["mse"] == pytest.approx(0.01, rel=1e-9)


def test_compare_orders_degraded_environments():
    # a clipped environment must score strictly worse than the original
    rng = np.random.default_rng(10)
    env_arr = rng.uniform(0.02, 0.2, (64, 128, 3))
    env_arr[0:6, 20:40] = 60.0  # bright zenith light
    env = HdrImage(env_arr.astype(np.float32))
    clipped = HdrImage(np.clip(env_arr, 0, 1).astype(np.float32))
    scene = parse_scene(
        "camera 48 32 2.5 0 0.2\nbackground off\n"
        "sphere -0.9 0 0.2 0.8 diffuse 0.9 0.9 0.9\n"
        "sphere 0.9 0 0.2 0.8 mirror\n"
    )
    ref = render(scene, env)
    good = compare_renders(render(scene, env), ref)
    bad = compare_renders(render(scene, clipped), ref)
    assert bad["mse"] > good["mse"]
    assert bad["ssim"] < good["ssim"]


def test_compare_shape_mismatch():
    with pytest.raises(ValueError):
        compare_renders(np.ones((4, 4, 3)), np.ones((4, 5, 3)))
