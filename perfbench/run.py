#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload index|finetune|search --seed N --seconds S --trace 0|1 [--scale small|full]

Run from the repository root. The first run compiles the repro library and
the harness with sbt and caches the runtime classpath under perfbench/target;
later runs start the JVM directly. The harness prints a report, then as its
last line one JSON object (correct, attempted, failed, metrics).
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")

# Inputs of the build: the library's build and sources, and the harness's.
SOURCES = [
    os.path.join(ROOT, "build.sbt"),
    os.path.join(ROOT, "project"),
    os.path.join(ROOT, "src", "main"),
    os.path.join(ROOT, "jobs"),
    os.path.join(HERE, "build.sbt"),
    os.path.join(HERE, "project"),
    os.path.join(HERE, "src", "main"),
]

# A fixed heap and the stop-the-world parallel collector: no heap resizing
# and no concurrent GC threads competing with the timed ops.
HEAP = "4g"
GC = ["-XX:+UseParallelGC", f"-Xms{HEAP}"]
# A benchmark run must end within 180 s; the optional full-size finetune
# run (about three minutes of training) gets more headroom.
RUN_TIMEOUT_S = {"small": 175, "full": 900}

JAVA_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def source_hash():
    h = hashlib.sha256(ROOT.encode())
    for top in SOURCES:
        if os.path.isfile(top):
            files = [top]
        else:
            files = []
            for d, subdirs, names in os.walk(top):
                subdirs[:] = sorted(s for s in subdirs if s not in ("target", "project"))
                files += [os.path.join(d, n) for n in names if n.endswith((".scala", ".sbt", ".properties", ".java"))]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_child(cmd, timeout=None, **kw):
    """Runs cmd, forwarding SIGTERM/SIGINT to it, and waits until it has ended."""
    child = subprocess.Popen(cmd, **kw)

    def stop(signum, _frame):
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"perfbench: {cmd[0]} did not end within {timeout} s", file=sys.stderr)
        return 124
    finally:
        for s, h in old.items():
            signal.signal(s, h)


def classpath():
    """The runtime classpath of the harness, building it when sources changed."""
    stamp = source_hash()
    if os.path.exists(CLASSPATH):
        with open(CLASSPATH) as fh:
            saved_stamp, cp = fh.read().split("\n", 1)
        if saved_stamp == stamp:
            return stamp, cp.strip()
    os.makedirs(TARGET, exist_ok=True)
    log = os.path.join(TARGET, "build.log")
    with open(log, "w") as out:
        code = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
                         cwd=HERE, stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
    with open(log) as fh:
        lines = [l.strip() for l in fh if l.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write("".join(l + "\n" for l in lines[-30:]))
        sys.exit(f"perfbench: build failed (exit {code}); log in {log}")
    with open(CLASSPATH, "w") as fh:
        fh.write(stamp + "\n" + lines[-1] + "\n")
    return stamp, lines[-1]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["index", "finetune", "search"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--scale", default="small", choices=["small", "full"],
                   help="finetune task size; full is the LakeBenchSuite size")
    a = p.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        sys.exit(f"perfbench: no repro sources under {ROOT}; run from a full checkout")
    stamp, cp = classpath()

    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xmx{HEAP}", *GC, f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.git_sha={git_sha()}", f"-Dperfbench.source_sha256={stamp}",
           "-Djdk.reflect.useDirectMethodHandle=false", "--enable-native-access=ALL-UNNAMED"]
    cmd += [f"--add-opens=java.base/{m}=ALL-UNNAMED" for m in JAVA_OPENS]
    cmd += ["-cp", cp, "perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace, "--scale", a.scale, "--out", TARGET]
    sys.stdout.flush()
    sys.exit(run_child(cmd, timeout=RUN_TIMEOUT_S[a.scale], stdin=subprocess.DEVNULL))


if __name__ == "__main__":
    main()
