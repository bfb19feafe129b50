"""Period-level queue model and its two stability properties.

The controller's behaviour at a bottleneck can be collapsed to a one-line
recursion on queue occupancy. This script runs that recursion for a sample
configuration, then checks the two properties the design rests on across 100
random configurations each: the queue never exceeds an explicit upper bound,
and with a large enough window it never drains to empty (so the link never
idles).

Run:  python3 demos/queue_model_check.py
"""

from p2pcc.fluid import (fluid_queue_trace, lemma2_min_window, verify_lemma1,
                         verify_lemma2)


def main():
    gamma, shares, delays, u_max = 0.9, [0.5, 0.5], [2, 6], 20.0
    w_min = lemma2_min_window(u_max, shares, delays, gamma)
    w = w_min + 1
    trace, _ = fluid_queue_trace(gamma, w, shares, delays, [u_max] * 200)
    print(f"two receivers, service {u_max:g}/period, window {w:g} "
          f"(positivity threshold {w_min:g})")
    print("queue occupancy, first 20 periods:")
    print("  " + " ".join(f"{y:.1f}" for y in trace[:20]))
    print(f"steady state: {trace[-1]:.2f} packets, "
          f"minimum after warm-up: {min(trace[10:]):.2f} (never empty)\n")

    for report in (verify_lemma1(), verify_lemma2()):
        print(report.summary())


if __name__ == "__main__":
    main()
