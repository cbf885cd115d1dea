"""Self-test of the benchmark itself: ``python3 perfbench/run.py --self-test``.

Runs every workload at tiny size and requires every output check to pass;
then corrupts each output in ways the checks must catch, runs the negative
control both ways, replays a few ops with tracing, and checks that the
metrics the runs print are exactly the ones ``BENCHMARK.json`` declares.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json

import checks
import gen

# Tiny pools: two analyze cycles, one ideals cycle without its lattices
# above 2^12, one oracle cycle, and one mc op per size (the third writes
# --eig-csv).
TINY = {"analyze": 40, "ideals": 13, "oracle": 10, "montecarlo": 3}
TINY_LATTICE = 2 ** 12


def _json_edit(res, edit):
    rc, out, err = res
    obj = json.loads(out)
    edit(obj)
    return rc, json.dumps(obj), err


def _set(path, value):
    def edit(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = value
    return edit


def corruptions(op, results, worst):
    """(label, results, worst, csv_rows) variants that must fail their check."""
    res = results[0]
    out = []
    if op.kind == "analyze" and op.expect["format"] == "json":
        obj = json.loads(res[1])
        out.append(("r0_trace off", [_json_edit(res, lambda o: o.update(r0_trace=str(
            checks.F(o["r0_trace"]) + checks.F(1, 7))))]))
        out.append(("ideal_count off", [_json_edit(res, lambda o: o.update(
            ideal_count=o["ideal_count"] + 1))]))
        if obj["summands"]:
            out.append(("gamma as float", [_json_edit(res, _set(["summands", 0, "gamma"], 0.25))]))
            out.append(("summand dropped", [_json_edit(res, lambda o: o["summands"].pop())]))
        if obj["characters"]:
            out.append(("character dropped", [_json_edit(res, lambda o: o["characters"].pop())]))
    elif op.kind == "analyze":
        text = res[1].replace("ideal_count=", "ideal_count=1")
        out.append(("text ideal_count off", [(res[0], text, res[2])]))
        out.append(("text r0 off", [(res[0], res[1].replace("{r0=", "{r0=1", 1), res[2])]))
    elif op.kind == "refuse":
        out.append(("refusal exit 0", [(0, res[1], res[2])]))
        out.append(("two error lines", [(res[0], res[1], res[2] + "error: again\n")]))
    elif op.kind == "conjecture":
        obj = json.loads(res[1])
        other = "boundary" if obj["status"] != "boundary" else "conjectured-simple"
        out.append(("status flipped", [_json_edit(res, _set(["status"], other))]))
        out.append(("verdict flipped", [_json_edit(res, lambda o: o.update(
            conjectured_simple=not o["conjectured_simple"]))]))
    elif op.kind == "ideals":
        rc, text, err = res
        if op.expect["format"] == "json":
            out.append(("ideal dropped", [_json_edit(res, lambda o: o["ideals"].pop())]))
            out.append(("unit trace off", [_json_edit(res, _set(["ideals", 0, "unit_trace"], "1/3"))]))
        else:
            out.append(("line dropped", [(rc, text.rsplit("\n", 2)[0] + "\n", err)]))
            out.append(("unit trace off", [(rc, text.replace("'unit_trace': '0'", "'unit_trace': '1/3'"), err)]))
    elif op.kind == "oracle":
        out.append(("m1 off", [_json_edit(res, _set(["moments", 1, "exact"], "1/3")), results[1]]))
        out.append(("abs_error large", [_json_edit(res, _set(["moments", 8, "abs_error"], 1e-3)), results[1]]))
        out.append(("atom_at_one off", [res, _json_edit(results[1], _set(["atom_at_one"], "1/2"))]))
        return [(label, r, worst, None) for label, r in out] + [("certify large", results, 1.0, None)]
    elif op.kind == "mc":
        out.append(("pass false", [_json_edit(res, _set(["pass"], False))]))
        out.append(("atom count off", [_json_edit(res, lambda o: o["trial_atom_one_counts"].__setitem__(
            0, o["trial_atom_one_counts"][0] + 1))]))
        rows = op.expect["dim"] * op.expect["trials"] + 1
        variants = [(label, r, worst, rows) for label, r in out]
        if op.expect["csv"]:
            variants.append(("csv row missing", results, worst, rows - 1))
        return variants
    return [(label, r, worst, None) for label, r in out]


def _verdict(op, results, worst, rows):
    try:
        if op.kind == "mc":
            checks.check_mc(op, results, rows)
        elif op.kind == "oracle":
            checks.check_oracle(op, results, worst)
        else:
            getattr(checks, f"check_{op.kind}")(op, results)
    except checks.Bad as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed: {exc!r}"
    return None


def main(run) -> int:
    run.pin_threads()
    run.locate_program()
    problems = []
    caught = 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload, size in TINY.items():
        pool = gen.make_pool(workload, 0, size)
        if gen.pool_digest(pool) != gen.pool_digest(gen.make_pool(workload, 0, size)):
            problems.append(f"{workload}: same seed gave different inputs")
        if gen.pool_digest(pool) == gen.pool_digest(gen.make_pool(workload, 1, size)):
            problems.append(f"{workload}: seeds 0 and 1 gave the same inputs")
        pool = [op for op in pool if op.props.get("lattice", 0) <= TINY_LATTICE]
        work = run.Workdir(f"selftest-{workload}")
        try:
            for op in pool:
                paths = work.materialize(op)
                _, _, results, worst = run.execute(op, paths)
                reason = run.check(op, results, worst, paths)
                if reason is not None:
                    problems.append(f"{workload} {op.kind} {op.argvs}: {reason}")
                    continue
                rows = op.expect["dim"] * op.expect["trials"] + 1 if op.kind == "mc" else None
                for label, bad, bad_worst, bad_rows in corruptions(op, results, worst):
                    if _verdict(op, copy.deepcopy(bad), bad_worst, bad_rows) is None:
                        problems.append(f"{workload} {op.kind}: corruption '{label}' not detected")
                    else:
                        caught += 1
                if _verdict(op, results, worst, rows) is not None:
                    problems.append(f"{workload} {op.kind}: check not repeatable")
            # a short traced run: every declared per-layer metric is produced
            traced = run.traced_run(10.0, pool, work, 2)
            probe = {"import_s": 0.1, "warmup_s": 0.1, "numpy_loaded": True}
            metrics = run.per_layer_metrics(traced, [probe])
            missing = {m["name"] for m in declared["per_layer"]} - set(metrics)
            if missing or traced["failures"]:
                problems.append(f"{workload}: traced run missing {sorted(missing)} "
                                f"or failed {traced['failures']}")
        finally:
            work.close()
        print(f"self-test {workload}: {len(pool)} ops checked")
    if not run.negative_control(wrong=True)["rejected"]:
        problems.append("negative control: wrong law not rejected")
    if run.negative_control(wrong=False)["rejected"]:
        problems.append("negative control: the right law was rejected, so a pass proves nothing")
    names = set(run.END_TO_END_UNITS)
    if names != {m["name"] for m in declared["end_to_end"]}:
        problems.append("end-to-end metric names differ from BENCHMARK.json")
    print(f"self-test: {caught} corrupted outputs caught, negative control detected both ways")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test:", "ok" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1
