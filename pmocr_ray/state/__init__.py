from pmocr_ray.state.manifest import LineageManifest, run_incremental  # noqa: F401
