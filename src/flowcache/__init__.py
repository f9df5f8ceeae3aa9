"""Training-free adaptive caching for iterative flow samplers.

The package is a desk-scale test bench: an analytic Gaussian-mixture model
whose posterior-mean predictor is exact, a plain Euler sampler over decreasing
timesteps, and two caching layers above it. The step cache measures
low-frequency drift with cheap downsampled trial evaluations and reuses the
previous prediction while accumulated drift stays under a warmup-calibrated
threshold. The block cache replays per-block deltas of a block-decomposed
predictor for the least important blocks. A harness quantifies where
predictions change and what skipping costs, and a CLI turns runs, sweeps, and
trace analyses into reproducible artifacts.
"""

__version__ = "0.1.0"
