#!/usr/bin/env python3
"""Where a command's CPU goes, by thread name, user and sys apart.

    scripts/thread_cpu.py <cmd...>      # the binary itself, not `cargo run`

Runs the command and, once a second, reads /proc/<pid>/task/*/stat: one
line per second with the cores each thread name used (user/sys), then per
name the CPU-seconds of the whole run. Threads are followed by id and
summed by name, so a name that comes back (an engine restarted in the
same process) keeps what its first holder used; the kernel cuts names to
15 characters (`calc-group-comm`), and unnamed threads carry the
process's. The build host has no profiler (`perf`, `strace`, `gdb`
absent); this is what shows whether a load is core-bound, which thread
is busy, and whether it computes or sits in the kernel — e.g.
`calc-group-commit` being woken once per commit.
"""
import collections, os, subprocess, sys, time

TICK = os.sysconf("SC_CLK_TCK")


def sample(pid):
    """{tid: (thread name, user s, sys s)} of the threads alive now."""
    out = {}
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return out
    for tid in tids:
        try:
            stat = open(f"/proc/{pid}/task/{tid}/stat").read()
        except OSError:
            continue  # the thread exited between listdir and open
        name = stat[stat.index("(") + 1 : stat.rindex(")")]
        fields = stat[stat.rindex(")") + 2 :].split()  # fields[0] is field 3
        out[tid] = (name, int(fields[11]) / TICK, int(fields[12]) / TICK)
    return out


child = subprocess.Popen(sys.argv[1:])
seen, second = {}, 0
while child.poll() is None:
    time.sleep(1)
    second += 1
    cores = collections.defaultdict(lambda: [0.0, 0.0])
    for tid, (name, user, sys_) in sample(child.pid).items():
        _, user0, sys0 = seen.get(tid, (name, 0.0, 0.0))
        cores[name][0] += user - user0
        cores[name][1] += sys_ - sys0
        seen[tid] = (name, user, sys_)
    busy = " ".join(f"{n}={u:.2f}/{s:.2f}" for n, (u, s) in sorted(cores.items()) if u + s >= 0.005)
    print(f"[{second:3d}s user/sys] {busy}", file=sys.stderr)
total = collections.defaultdict(lambda: [0.0, 0.0])
for name, user, sys_ in seen.values():
    total[name][0] += user
    total[name][1] += sys_
print(f"{'thread':<16} {'user_s':>8} {'sys_s':>8}", file=sys.stderr)
for name, (user, sys_) in sorted(total.items()):
    print(f"{name:<16} {user:8.2f} {sys_:8.2f}", file=sys.stderr)
sys.exit(child.returncode)
