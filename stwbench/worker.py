"""One fresh process of the benchmark: set up stw, run one job, check it.

Reads one JSON job from standard input and prints one JSON result line.
Set-up ends when `stw` is imported and `context_for` has been built for
the job's theories; the run ends at the job's last output.  The checks
run after that, outside the timed region, and so does everything the
traced pass summarises.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _usage() -> tuple[float, float]:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime, use.ru_maxrss / 1024.0


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, str(SRC))
    import stw.cli

    if not Path(stw.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"stw was imported from {stw.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from stw import braid, double, modular, quandle
    from stw.cocycle import CocycleParams
    from stw.group import GroupSpec

    params = {u: CocycleParams(GroupSpec(*job["group"]), u) for u in job["theories"]}
    for p in params.values():
        double.context_for(p)
    setup_end = time.perf_counter()
    setup_s = time.monotonic() - job["t_spawn"]
    result = {"setup_s": setup_s, "attempted": 0, "failed": 0, "errors": [], "failures": []}
    if job["kind"] == "setup":
        print(json.dumps(result))
        return 0

    searches = []
    if job["check"] == "distinguish":
        # Keep each search's witness for the checks; a few dozen calls, negligible time.
        search = modular.equivalence_search

        def capture(d1, d2):
            found = search(d1, d2)
            searches.append((d1.name, d2.name, d1.w_keys is not None, found))
            return found

        modular.equivalence_search = capture

    outputs = []
    if job["kind"] == "cli":
        buffer = io.StringIO()
        code = None
        try:
            with redirect_stdout(buffer):
                code = stw.cli.main(job["argv"])
        except Exception as err:  # an operation that fails is counted, not fatal
            result["errors"].append(f"{job['argv']}: {err!r}")
        run_end = time.perf_counter()
        result["attempted"] = 1
        if code != 0:
            result["failed"] = 1
            result["errors"].append(f"stw {' '.join(job['argv'])} exited with {code}")
        output = buffer.getvalue()
    else:
        for item in job["items"]:
            result["attempted"] += 1
            try:
                p = params[item["u"]]
                word = braid.BraidWord(item["strands"], tuple(item["letters"]))
                partner = item["partner"]
                other = braid.BraidWord(partner["strands"], tuple(partner["letters"]))
                v1 = braid.zero_framed_invariant(p, word, item["colors"])
                v2 = braid.zero_framed_invariant(p, other, partner["colors"])
                report = None
                if item["single"] is not None:
                    report = quandle.single_color_check(p, word, *item["single"])
                outputs.append((v1, v2, report))
            except Exception as err:  # an operation that fails is counted, not fatal
                result["failed"] += 1
                result["errors"].append(f"item {len(outputs)}: {err!r}")
                outputs.append(None)
        run_end = time.perf_counter()
    result["cpu_s"], result["maxrss_mb"] = _usage()
    result["run_s"] = run_end - setup_end
    if tracer is not None:
        result["trace"] = tracer.summary(setup_end, run_end)

    import checks

    if job["kind"] == "cli" and result["failed"]:
        pass  # nothing to check: the call gave no complete output
    elif job["check"] == "distinguish":
        theories = {
            u: checks.FloatTheory(modular.modular_data(p), modular.w_matrix(p))
            for u, p in params.items()
        }
        result["failures"] = checks.check_distinguish(output, theories, searches)
    elif job["check"] == "modular":
        md = modular.modular_data(params[1])
        result["failures"] = checks.check_modular(output, md, modular.verlinde_table(md))
    elif job["check"] == "wmatrix":
        p = params[1]
        result["failures"] = checks.check_wmatrix(
            output, modular.modular_data(p), modular.w_matrix(p)
        )
    else:
        twist_exps = []
        for item in job["items"]:
            ctx = double.context_for(params[item["u"]])
            twist_exps.append(ctx.tables[ctx.index_of(item["colors"][0])].twist_exp)
        result["failures"] = checks.check_braid(
            job["items"], outputs, job["group"], twist_exps, ctx.root_order
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
