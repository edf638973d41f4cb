#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload listing|motif|fsm --seed N --seconds S --trace 0|1
                             [--expect KEY=COUNT ...]

Run from the repository root. The first run compiles src/main/scala and
perfbench/src with the Scala compiler shipped in the Spark distribution
($SPARK_HOME/jars) into .bench_build/<source hash>/; later runs reuse it.
The benchmark JVM writes spans and Spark scratch files under .bench_out/.
The last line of stdout is the JSON result. See perfbench/README.md.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(ROOT, "perfbench", "src")]
HEAP = "3g"
YOUNG = "256m"
RUN_TIMEOUT_S = 175
# The JDK module openings spark-submit passes (same list as build.sbt).
ADD_OPENS = [
    "java.base/" + p + "=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            fail("SPARK_HOME is not set and spark-submit is not on PATH")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars")
    if not os.path.isdir(jars):
        fail("no Spark jars under " + jars)
    return jars


def sources():
    if not os.path.isdir(SOURCE_DIRS[0]):
        fail("no program sources at src/main/scala; run from the repository root")
    files = sorted(f for d in SOURCE_DIRS for f in glob.glob(os.path.join(d, "**", "*.scala"), recursive=True))
    if not files:
        fail("no Scala sources found")
    return files


def build(jars):
    files = sources()
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    classes = os.path.join(BUILD, h.hexdigest()[:16])
    if os.path.isdir(classes):
        return classes
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    compiler = [j for j in glob.glob(os.path.join(jars, "scala-*.jar"))
                if os.path.basename(j).startswith(("scala-compiler-", "scala-library-", "scala-reflect-"))]
    if len(compiler) != 3:
        fail("Scala compiler, library and reflect jars not found in " + jars)
    classpath = os.pathsep.join(sorted(glob.glob(os.path.join(jars, "*.jar"))))
    print("perfbench: compiling %d sources" % len(files), file=sys.stderr)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp,
           "-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main",
           "-nowarn", "-classpath", classpath, "-d", tmp] + files
    if subprocess.run(cmd).returncode != 0:
        fail("compilation failed")
    os.rename(tmp, classes)
    return classes


def main():
    jars = spark_jars()
    classes = build(jars)
    tmpdir = os.path.join(OUT, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    cmd = (["java", "-Xms" + HEAP, "-Xmx" + HEAP, "-Xmn" + YOUNG, "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmpdir,
            "-Dlog4j2.configurationFile=" + os.path.join(ROOT, "perfbench", "log4j2.properties")]
           + ["--add-opens=" + o for o in ADD_OPENS]
           + ["-cp", os.pathsep.join([classes, os.path.join(jars, "*")]),
              "repro.perfbench.Bench", "--out", OUT] + sys.argv[1:])
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
