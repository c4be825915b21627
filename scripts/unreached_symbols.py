#!/usr/bin/env python3
"""Lists the library functions that no shipped binary reaches.

A shipped binary is every executable defined under bench/, examples/ and
tools/, plus pds2_perfbench (built through `cmake -S perfbench`, which is
read but never edited). The script configures a second build directory in
Debug with -ffunction-sections -fno-inline and links with
-Wl,--gc-sections, so each binary keeps only the functions it can call.
It then takes the pds2:: text symbols (T/W) of the libraries under src/,
drops std:: and common::Result<...> instantiations, merges overloads into
one name, and reports each name that no binary keeps:

  python3 scripts/unreached_symbols.py [--build-dir build-unreached]

Every unreached name must be on scripts/unreached_allowlist.txt, one
`name  # reason` per line. Exits 1 when an unreached name is missing from
the allowlist, or when an allowlisted name is reached again or no longer
defined, so the list can only shrink. The result is a lower bound in two
ways: a function referenced only from code that never runs still counts
as kept, and an inline or header-only function that no .cc calls is never
emitted into a library, so the script cannot see it at all.

  python3 scripts/unreached_symbols.py --check-allowlist

needs no build: it checks that every allowlist line has a reason and
names a function still declared under src/ (the ctest
unreached_allowlist_check). Stdlib only.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "scripts", "unreached_allowlist.txt")
SHIPPED_DIRS = ("bench", "examples", "tools")
FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fno-inline",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]

# Operator names whose characters would unbalance the bracket scan.
_OPERATORS = ("operator()", "operator<<=", "operator>>=", "operator<<",
              "operator>>", "operator<=>", "operator<=", "operator>=",
              "operator->", "operator<", "operator>")
_QUALIFIERS = (" const", " volatile", " &&", " &", " noexcept")


def function_name(symbol):
    """'pds2::a::B::F(int) const' -> 'pds2::a::B::F'; None if no call."""
    symbol = re.sub(r" ?\[(clone|abi:)[^\]]*\]", "", symbol)
    saved = []
    for i, op in enumerate(_OPERATORS):
        token = "\x00%d\x00" % i
        if op in symbol:
            symbol = symbol.replace(op, token)
            saved.append((token, op))
    stripped = True
    while stripped:
        stripped = False
        for q in _QUALIFIERS:
            if symbol.endswith(q):
                symbol = symbol[:-len(q)]
                stripped = True
    if not symbol.endswith(")"):
        return None
    depth = 0
    for i in range(len(symbol) - 1, -1, -1):
        if symbol[i] == ")":
            depth += 1
        elif symbol[i] == "(":
            depth -= 1
            if depth == 0:
                break
    name = symbol[:i]
    # A template instantiation carries its return type before the name.
    depth = 0
    start = 0
    for i, ch in enumerate(name):
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        elif ch == " " and depth == 0:
            start = i + 1
    name = name[start:]
    for token, op in saved:
        name = name.replace(token, op)
    return name


def is_project_name(name):
    return (name is not None and name.startswith("pds2::")
            and not name.startswith("pds2::common::Result<"))


def nm(path):
    """Yields (type, demangled symbol) for each defined symbol of `path`."""
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and len(parts[1]) == 1:
            yield parts[1], parts[2]


def run(cmd):
    print("+ " + " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def configure(source, build):
    """Configures `build` and returns its codemodel's targets."""
    query = os.path.join(build, ".cmake", "api", "v1", "query")
    os.makedirs(query, exist_ok=True)
    open(os.path.join(query, "codemodel-v2"), "w").close()
    run(["cmake", "-S", source, "-B", build] + FLAGS)
    reply = os.path.join(build, ".cmake", "api", "v1", "reply")
    index = max(f for f in os.listdir(reply) if f.startswith("index-"))
    with open(os.path.join(reply, index)) as f:
        codemodel = json.load(f)["reply"]["codemodel-v2"]["jsonFile"]
    with open(os.path.join(reply, codemodel)) as f:
        config = json.load(f)["configurations"][0]
    targets = []
    for ref in config["targets"]:
        with open(os.path.join(reply, ref["jsonFile"])) as f:
            target = json.load(f)
        artifacts = target.get("artifacts", [])
        targets.append({
            "name": target["name"],
            "type": target["type"],
            "dir": target["paths"]["source"],
            "artifact": (os.path.join(build, artifacts[0]["path"])
                         if artifacts else None),
        })
    return targets


def build_and_scan(build_dir):
    """Returns (library names, names kept by shipped binaries, binaries)."""
    main = os.path.join(build_dir, "main")
    perf = os.path.join(build_dir, "perfbench")
    targets = configure(ROOT, main)
    shipped = [t for t in targets if t["type"] == "EXECUTABLE"
               and t["dir"].split("/")[0] in SHIPPED_DIRS]
    libraries = [t for t in targets if t["type"] == "STATIC_LIBRARY"
                 and t["dir"].split("/")[0] == "src"]
    jobs = str(os.cpu_count() or 1)
    run(["cmake", "--build", main, "-j", jobs, "--target"]
        + [t["name"] for t in shipped + libraries])
    perf_targets = configure(os.path.join(ROOT, "perfbench"), perf)
    perfbench = [t for t in perf_targets if t["name"] == "pds2_perfbench"]
    run(["cmake", "--build", perf, "-j", jobs, "--target",
         "pds2_perfbench"])
    binaries = [t["artifact"] for t in shipped + perfbench]

    library_symbols = set()
    for lib in libraries:
        for kind, symbol in nm(lib["artifact"]):
            if kind in "TW" and "pds2::" in symbol:
                library_symbols.add(symbol)
    kept_symbols = set()
    for binary in binaries:
        kept_symbols.update(symbol for _, symbol in nm(binary))
    unreached = library_symbols - kept_symbols
    print("%d library pds2:: symbols, %d kept by no shipped binary"
          % (len(library_symbols), len(unreached)))
    library = {function_name(s) for s in library_symbols}
    kept = {function_name(s) for s in kept_symbols}
    library = {n for n in library if is_project_name(n)}
    return library, kept, binaries


def read_allowlist():
    """Returns [(line number, name, reason)]; reason is '' when missing."""
    entries = []
    with open(ALLOWLIST) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition("#")
            entries.append((number, name.strip(), reason.strip()))
    return entries


def source_texts():
    texts = []
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith((".h", ".cc")):
                with open(os.path.join(dirpath, f)) as fh:
                    texts.append(fh.read())
    return texts


def check_allowlist():
    """Every line has a reason and names a function declared under src/."""
    errors = []
    texts = source_texts()
    entries = read_allowlist()
    for number, name, reason in entries:
        where = "unreached_allowlist.txt:%d" % number
        if not reason:
            errors.append("%s: %s has no reason" % (where, name))
        parts = re.sub(r"<[^<>]*>", "", name).split("::")
        if len(parts) < 2 or parts[0] != "pds2":
            errors.append("%s: %r is not a pds2:: function" % (where, name))
            continue
        call = re.compile(r"\b%s\s*\(" % re.escape(parts[-1]))
        scope = re.compile(r"\b%s\b" % re.escape(parts[-2]))
        if not any(call.search(t) and scope.search(t) for t in texts):
            errors.append("%s: %s is not declared under src/" % (where, name))
    names = [name for _, name, _ in entries]
    for name in sorted({n for n in names if names.count(n) > 1}):
        errors.append("unreached_allowlist.txt: %s is listed twice" % name)
    for e in errors:
        print(e)
    print("%d allowlist entries, %d problems" % (len(entries), len(errors)))
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT,
                                                            "build-unreached"))
    parser.add_argument("--check-allowlist", action="store_true",
                        help="check the allowlist's lines only; no build")
    args = parser.parse_args()
    if args.check_allowlist:
        return check_allowlist()

    library, kept, binaries = build_and_scan(os.path.abspath(args.build_dir))
    unreached = sorted(library - kept)
    allowed = {name for _, name, _ in read_allowlist()}
    print("%d shipped binaries, %d unreached pds2:: names, %d allowlisted"
          % (len(binaries), len(unreached), len(allowed)))
    status = 0
    for name in unreached:
        if name not in allowed:
            print("unreached, not allowlisted: " + name)
            status = 1
    for name in sorted(allowed):
        if name not in library:
            print("allowlisted, no longer defined: " + name)
            status = 1
        elif name in kept:
            print("allowlisted, reached again: " + name)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
