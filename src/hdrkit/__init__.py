"""hdrkit: HDR calibration, scale-invariant metrics, panorama geometry,
virtual-camera LDR synthesis, and environment-light rendering."""

__version__ = "0.1.0"

from .calibration import (
    CalibrationResult,
    UncalibratableError,
    calibrate_hdr,
    luminance_seg_labels,
    overexposure_mask,
)
from .camera import (
    AutoExposureError,
    CameraSample,
    apply_crf,
    apply_dynamic_range,
    auto_expose,
    identity_camera,
    sample_camera,
    split_seeds,
    synth_ldr,
)
from .fileio import (
    FileFormat,
    HdrIoError,
    detect_format,
    read_image,
    read_pfm,
    read_ppm,
    read_rgbe,
    write_image,
    write_pfm,
    write_ppm,
    write_rgbe,
)
from .image import (
    HdrImage,
    LdrImage,
    LinearLdr,
    SegMask,
    channel_mean,
    exposure_preview,
    linear_to_srgb,
    srgb_to_linear,
)
from .losses import (
    LossConfig,
    display_anchor,
    log_psnr,
    metric_report,
    optimal_scale,
    pano_loss,
    scale_invariant_loss,
    seg_cross_entropy,
    si_mse,
    ssim,
    total_loss,
)
from .pano import (
    PanoProjection,
    ceiling_to_pano,
    crop_perspective,
    crop_set,
    dir_equirect,
    equirect_dir,
    merge_mask,
    merge_panorama,
    pano_to_ceiling,
)
# The function render is not re-exported: it would shadow the module
# hdrkit.render. render_many(scene, [env])[0] is the same render.
from .render import (
    SceneConfig,
    compare_renders,
    default_scene_text,
    diffuse_irradiance,
    parse_scene,
    render_many,
)
