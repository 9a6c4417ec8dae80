"""The benchmark workloads: `asad run` configs made from the run's seed.

Every workload is a closed loop of one caller: one pipeline round at a
time, each in a fresh process. The seed picks the synthetic recordings
(`synth.seed`) and the split and training streams (`seeds.base`); the
amount of work does not depend on it, because early stopping is held off
(`early_stop_patience` = `max_epochs`).

`checks` names the correctness checks of `checks.py` that every round of
the workload runs, in order.
"""

from __future__ import annotations

WORKLOADS = {
    # c05 strong-lateralization arm at 1 s windows, CNN only
    "cnn-1s": {
        "config": lambda seed: {
            "models": ["cnn"],
            "synth": {"n_subjects": 4, "duration_s": 240.0, "lateralization_gain": 2.0,
                      "seed": seed},
            "split": {"block_s": 10.0},
            "window_sizes_s": [1.0],
            "train": {"max_epochs": 8, "early_stop_patience": 8},
            "seeds": {"base": seed, "runs": 1},
        },
        "checks": ("no_leakage", "cached_maps", "cnn_accuracy_consistent", "cnn_accuracy_strong"),
    },
    # linear decoder only, over 1, 2, 5 and 10 s windows with envelope mixing
    "linear-sweep": {
        "config": lambda seed: {
            "models": ["linear"],
            "montage": "builtin:biosemi32",
            "synth": {"n_subjects": 3, "n_channels": 32, "duration_s": 240.0,
                      "envelope_mix_gain": 1.0, "seed": seed},
            "window_sizes_s": [1.0, 2.0, 5.0, 10.0],
            "seeds": {"base": seed, "runs": 1},
        },
        "checks": ("no_leakage", "ridge_normal_equations", "linear_accuracy"),
    },
    # null control (gain 0), 5 sub-window maps per 1 s window, one epoch, CNN only
    "ssf-null": {
        "config": lambda seed: {
            "models": ["cnn"],
            "synth": {"n_subjects": 4, "duration_s": 240.0, "lateralization_gain": 0.0,
                      "seed": seed},
            "split": {"block_s": 10.0},
            "features": {"sub_windows": 5},
            "window_sizes_s": [1.0],
            "train": {"max_epochs": 1, "early_stop_patience": 1},
            "seeds": {"base": seed, "runs": 1},
        },
        "checks": ("no_leakage", "cached_maps", "cnn_accuracy_consistent", "cnn_accuracy_chance"),
    },
}
