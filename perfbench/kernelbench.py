"""Image-kernel throughput in one fresh interpreter, outside the CLI.

    PYTHONPATH=src python3 perfbench/kernelbench.py --seed 1

Times ``ringbf.filter.filter_image_values`` (Frac, n=3) on a 512x512 phantom,
which fits in cache, and a 2048x2048 one, which does not, and prints the
median throughput of each as one JSON line ``{"512": Mpix/s, "2048": Mpix/s}``
after a verdict against the 250 ms soft budget for one 512x512 pass.
"""
import argparse
import json
import statistics
import time

import numpy as np

import workloads

REPEATS = {512: 9, 2048: 3}
FILTER_BUDGET_S = 0.250  # soft target for one 512x512, n=3 pass


def mpix_s(size, rng):
    from ringbf.filter import filter_image_values

    values = workloads.phantom(rng, workloads.BANDS, workloads.IMAGE_NOISE, size).astype(np.float64)
    cfg = workloads.filter_config("frac", workloads.FRAC_T, 3)
    filter_image_values(values, cfg)  # first-call costs are not the kernel's
    times = []
    for _ in range(REPEATS[size]):
        start = time.perf_counter()
        filter_image_values(values, cfg)
        times.append(time.perf_counter() - start)
    return size * size / 1e6 / statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    result = {str(size): mpix_s(size, rng) for size in REPEATS}
    one_pass_ms = 512 * 512 / 1e6 / result["512"] * 1e3
    verdict = "within" if one_pass_ms <= FILTER_BUDGET_S * 1e3 else "OVER"
    print(f"filter budget: {one_pass_ms:.1f} ms for one 512x512 Frac n=3 pass vs "
          f"{FILTER_BUDGET_S * 1e3:.0f} ms soft target ({verdict})")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
