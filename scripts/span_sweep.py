#!/usr/bin/env python3
"""Interleaved sweep of the replay span (vm::kReplaySpan, src/vm/trace.hh).

Builds vpexp once per span from the working tree with only the
kReplaySpan line rewritten, then runs

    vpexp <the seven studies> --dry-run --jobs J

ROUNDS times per span, interleaved: every round runs each span once,
in an order that rotates from round to round, so a burst of host load
slows all spans alike. Prints each span's median wall time and peak
RSS with their quartiles. Exits 1 if any run fails or if the spans'
stdout differs (minus the trailing `vpexp:` summary line): the span
must never change a reported number.

  scripts/span_sweep.py WORKDIR [--spans 4096,16384,65536,262144]
                                [--rounds 10] [--jobs 4]

WORKDIR receives one source copy and Release build per span; reruns
reuse the builds. The studies peak near 0.6 GB RSS at --jobs 4, so run
nothing else memory-heavy beside the sweep.
"""

import argparse
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STUDIES = ["capacity", "confidence", "replacement", "ablation_blending",
           "ablation_hysteresis", "hybrid_split", "aliasing"]
SPAN_LINE = re.compile(r"(inline constexpr size_t kReplaySpan = )\d+;")


def build(workdir, span, jobs):
    """Source copy of the working tree with kReplaySpan = @p span, and
    its vpexp; returns the binary's path."""
    src = os.path.join(workdir, "span-%d" % span)
    vpexp = os.path.join(src, "build", "bench", "vpexp")
    if not os.path.isdir(src):
        # `git stash create` commits the working tree without touching
        # it (and prints nothing when the tree is clean).
        rev = subprocess.run(["git", "-C", ROOT, "stash", "create"],
                             check=True, capture_output=True,
                             text=True).stdout.strip() or "HEAD"
        os.makedirs(src)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("span_sweep: git archive failed")
        header = os.path.join(src, "src", "vm", "trace.hh")
        with open(header) as f:
            text, hits = SPAN_LINE.subn(r"\g<1>%d;" % span, f.read())
        if hits != 1:
            sys.exit("span_sweep: no single kReplaySpan line in %s"
                     % header)
        with open(header, "w") as f:
            f.write(text)
    for cmd in (["cmake", "-S", src, "-B", os.path.join(src, "build"),
                 "-DCMAKE_BUILD_TYPE=Release", "-DVP_BUILD_EXAMPLES=OFF"],
                ["cmake", "--build", os.path.join(src, "build"),
                 "-j", str(jobs), "--target", "vpexp"]):
        step = subprocess.run(cmd, capture_output=True, text=True)
        if step.returncode != 0:
            sys.exit("span_sweep: %s failed:\n%s%s"
                     % (" ".join(cmd), step.stdout, step.stderr))
    return vpexp


def run_once(vpexp, jobs, tmpdir):
    """(wall s, peak RSS MB, stdout minus the summary line)."""
    env = dict(os.environ, TMPDIR=tmpdir)
    start = time.monotonic()
    proc = subprocess.Popen([vpexp, "--dry-run", "--jobs", str(jobs)]
                            + STUDIES, stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit("span_sweep: %s exited %d"
                 % (vpexp, os.waitstatus_to_exitcode(status)))
    lines = [line for line in out.decode().splitlines()
             if not line.startswith("vpexp:")]
    return wall, usage.ru_maxrss / 1024.0, lines


def quartiles(values, fmt):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (fmt + " [" + fmt + ", " + fmt + "]") % (q2, q1, q3)


def main(argv):
    parser = argparse.ArgumentParser(
            description=__doc__,
            formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workdir")
    parser.add_argument("--spans", default="4096,16384,65536,262144")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args(argv)

    spans = [int(s) for s in args.spans.split(",")]
    workdir = os.path.abspath(args.workdir)
    tmpdir = os.path.join(workdir, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    binaries = {span: build(workdir, span, args.jobs) for span in spans}

    walls = {span: [] for span in spans}
    rss = {span: [] for span in spans}
    reference = None
    for r in range(args.rounds):
        for i in range(len(spans)):
            span = spans[(r + i) % len(spans)]
            wall, peak, lines = run_once(binaries[span], args.jobs, tmpdir)
            walls[span].append(wall)
            rss[span].append(peak)
            if reference is None:
                reference = lines
            elif lines != reference:
                sys.exit("span_sweep: span %d changed vpexp's output"
                         % span)
        print("round %d/%d done" % (r + 1, args.rounds), file=sys.stderr)

    print("| span | wall s, median [q1, q3] | peak RSS MB, median [q1, q3] |")
    print("|---|---|---|")
    for span in spans:
        print("| %d | %s | %s |" % (span, quartiles(walls[span], "%.2f"),
                                    quartiles(rss[span], "%.0f")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
