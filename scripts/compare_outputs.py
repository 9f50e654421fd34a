"""Compare two ``output_digests.py --values`` files input by input.

    python3 scripts/compare_outputs.py parent.json change.json

Prints, over the estimates present in both files:

* the share of inputs whose winning candidate is the same (same source and
  a winning pair equal within 1e-6 relative, or no winner on both sides),
* the largest relative difference of the raw and refined states
  (|a - b| / max(1, |a|) per component),
* the number of failure mismatches (the degenerate-geometry or
  singular-refinement flag, or a state present on one side only),
* the number of no-real-root flag mismatches,

and the largest relative error of the noise-free refined states against the
truth in the second file, and the number of digest entries (Gauss-Newton,
CRLB) that differ. Exits 1 when the two files hold different inputs.
"""

import json
import math
import sys


def _rel(a, b) -> float:
    return max(abs(x - y) / max(1.0, abs(x)) for x, y in zip(a, b))


def _same_winner(a: dict, b: dict) -> bool:
    if a["winner"] is None or b["winner"] is None:
        return a["winner"] is None and b["winner"] is None
    return a["complex_win"] == b["complex_win"] and _rel(a["winner"], b["winner"]) <= 1e-6


def compare(first: dict, second: dict) -> dict:
    estimates = [k for k in first if isinstance(first[k], dict)]
    same = mismatched = fallback = 0
    state_diff = clean_err = 0.0
    for key in estimates:
        a, b = first[key], second[key]
        same += _same_winner(a, b)
        degenerate, no_real_root, singular = (
            x != y for x, y in zip(a["flags"], b["flags"])
        )
        failed = degenerate or singular
        fallback += no_real_root
        for name in ("raw", "refined"):
            if (a[name] is None) != (b[name] is None):
                failed = True
            elif a[name] is not None:
                state_diff = max(state_diff, _rel(a[name], b[name]))
        mismatched += failed
        if "_clean_" in key:
            err = math.inf if b["refined"] is None else _rel(b["truth"], b["refined"])
            clean_err = max(clean_err, err)
    digests = [k for k in first if not isinstance(first[k], dict)]
    return {
        "estimates": len(estimates),
        "same_winner_share": same / len(estimates) if estimates else math.nan,
        "max_rel_state_diff": state_diff,
        "failure_mismatches": mismatched,
        "no_real_root_mismatches": fallback,
        "noise_free_max_rel_err": clean_err,
        "digests": len(digests),
        "digest_mismatches": sum(first[k] != second[k] for k in digests),
    }


def main(argv: list[str]) -> int:
    with open(argv[0]) as handle:
        first = json.load(handle)
    with open(argv[1]) as handle:
        second = json.load(handle)
    if set(first) != set(second):
        print("the two files hold different inputs", file=sys.stderr)
        return 1
    for name, value in compare(first, second).items():
        print(f"{name:<24} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
