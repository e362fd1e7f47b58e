#!/usr/bin/env python3
"""Build and run the METAM benchmark.

Usage (from the repository root):

    python3 metambench/run.py --workload table2 --seed 2023 --trace 0

--seconds defaults to run_seconds in BENCHMARK.json, and --seed to the
workload's own default (2023 for the search workloads, 6 for repo_stats).

The program is built from source on the first run in a checkout: the Scala
compiler of the local Spark distribution compiles the repository's main
sources together with the harness in metambench/src into .bench_build/, with
a fingerprint of every build input, so later runs start the JVM directly. All
build outputs, Spark scratch space and trace files stay inside the checkout.
The last line of standard output is the harness's JSON result.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_build", "metambench")
WORKLOADS = ("table2", "search_paper_scale", "repo_stats")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600
# A fixed heap (-Xms = -Xmx), so heap resizing does not vary between passes;
# -XX:-UsePerfData: no hsperfdata files outside the checkout.
JVM_OPTS = ["-Xms3g", "-Xmx3g", "-Xss4m", "-XX:-UsePerfData"]


CHILD = None


def fail(msg, code=2):
    print(f"[metambench] {msg}", file=sys.stderr)
    sys.exit(code)


def stop(signum, _frame):
    """Stop the running child before exiting on a signal."""
    if CHILD is not None and CHILD.poll() is None:
        CHILD.kill()
        CHILD.wait()
    fail(f"stopped by signal {signum}", 128 + signum)


def run_child(cmd, cwd, env, timeout, what):
    """Run a child with its stdout captured and stderr passed through; return (exit code, stdout)."""
    global CHILD
    CHILD = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                             stdin=subprocess.DEVNULL, text=True)
    try:
        out, _ = CHILD.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        CHILD.kill()
        CHILD.wait()
        fail(f"{what} exceeded {timeout} s", 3)
    return CHILD.returncode, out


def build_inputs():
    """Every file whose change requires a rebuild, in a stable order."""
    tops = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"), os.path.join(BENCH, "src")]
    files = [os.path.abspath(__file__)]
    for top in tops:
        for d, dirs, names in os.walk(top):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    return [f for f in files if os.path.isfile(f)]


def fingerprint():
    h = hashlib.sha256()
    for f in build_inputs():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_jars():
    """The jars of the local Spark distribution: those of $SPARK_HOME, else of the
    spark-submit on PATH, else the directory the root build.sbt takes them from."""
    dirs = []
    if os.environ.get("SPARK_HOME"):
        dirs.append(os.path.join(os.environ["SPARK_HOME"], "jars"))
    if shutil.which("spark-submit"):
        dirs.append(os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit")))), "jars"))
    with open(os.path.join(ROOT, "build.sbt")) as fh:
        dirs += re.findall(r'Compile / unmanagedBase := file\("([^"]+)"\)', fh.read())
    for d in dirs:
        jars = sorted(glob.glob(os.path.join(d, "*.jar")))
        if jars:
            return jars
    fail("no Spark distribution found: set SPARK_HOME", 3)


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else ""
    return exe if os.path.isfile(exe) else "java"


def env_for_jvm():
    env = dict(os.environ)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["SPARK_LOCAL_DIRS"] = os.path.join(OUT, "spark-local")
    return env, tmp


def build(jars):
    """Compile the program's and the harness's sources if any changed; return the classes directory.

    The Scala compiler that ships with Spark compiles src/main/scala, jobs/
    (as the root build does) and metambench/src/main/scala against Spark's
    jars in one pass. Nothing is resolved or cached outside the checkout.
    """
    classes = os.path.join(OUT, "classes")
    stamp = os.path.join(OUT, "build.json")
    fp = fingerprint()
    if os.path.exists(stamp):
        with open(stamp) as fh:
            if json.load(fh).get("fingerprint") == fp:
                return classes
        os.remove(stamp)
    compiler = [j for j in jars if re.search(r"/scala-(compiler|library|reflect)-[^/]*\.jar$", j)]
    if len(compiler) != 3:
        fail("the Spark distribution has no Scala compiler (scala-compiler, -library, -reflect jars)", 3)
    sources = [f for f in build_inputs() if f.endswith(".scala")]
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    args = os.path.join(OUT, "scalac.args")
    with open(args, "w") as fh:
        fh.write("\n".join(f'"{a}"' for a in ["-d", classes, "-classpath", os.pathsep.join(jars), *sources]) + "\n")
    env, tmp = env_for_jvm()
    cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main", "@" + args]
    started = time.time()
    code, out = run_child(cmd, ROOT, env, BUILD_TIMEOUT_S, "build")
    sys.stderr.write(out)
    if code != 0:
        fail(f"build failed (scalac exit {code})", 3)
    with open(stamp, "w") as fh:
        json.dump({"fingerprint": fp}, fh)
    print(f"[metambench] built {len(sources)} sources in {time.time() - started:.1f} s", file=sys.stderr)
    return classes


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    if a.seconds is None:
        try:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
                a.seconds = json.load(fh)["run_seconds"]
        except (OSError, ValueError, KeyError):
            fail("no --seconds given and no run_seconds in BENCHMARK.json")
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt")) and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        fail("the METAM sources (build.sbt, src/main/scala) are not next to the benchmark")
    os.makedirs(OUT, exist_ok=True)
    jars = spark_jars()
    classpath = os.pathsep.join([build(jars), os.path.join(BENCH, "src", "main", "resources"), *jars])
    env, tmp = env_for_jvm()
    cmd = [java(), *JVM_OPTS, f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.sql.warehouse.dir={os.path.join(OUT, 'spark-warehouse')}",
           "-cp", classpath, "repro.metambench.Main",
           "--workload", a.workload, "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.seed is not None:
        cmd += ["--seed", str(a.seed)]
    code, out = run_child(cmd, ROOT, env, RUN_TIMEOUT_S, "run")
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"harness failed (exit {code})", code or 4)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(out)
        fail("harness printed no result", 4)
    sys.stderr.write("".join(l + "\n" for l in lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
