#!/usr/bin/env python3
"""Where a command's CPU goes, by thread name, user and sys apart.

    scripts/thread_cpu.py <cmd...>      # the binary itself, not `cargo run`

Runs the command and, every 0.1 s, reads its threads' entries under
/proc/<pid>/task/: CPU (`stat`), run delay — time runnable but waiting
for a core (`schedstat` field 2) — and voluntary / involuntary context
switches (`status`), plus the process's minor faults (/proc/<pid>/stat).
Once a second it prints one line with the cores each thread name used
(user/sys) and the second's minor faults; at exit, per name, the
CPU-seconds, run-delay seconds and switches of the whole run. Sampling at
0.1 s counts threads that live a fraction of a second, such as a
restart's `calc-lane-N` threads. Threads are followed by id and summed by
name, so a name that comes back (an engine restarted in the same process)
keeps what its first holder used; the kernel cuts names to 15 characters
(`calc-group-comm`), and unnamed threads carry the process's. What a
thread did after its last sample is lost, at most 0.1 s of it. The build
host has no profiler (`perf`, `strace`, `gdb` absent); this is what shows
whether a load is core-bound, which thread is busy, whether it computes or
sits in the kernel — e.g. `calc-group-commit` being woken once per commit
— and whether its threads wait for a core.
"""
import collections, os, subprocess, sys, time

TICK = os.sysconf("SC_CLK_TCK")
PERIOD = 0.1
PER_LINE = 10  # samples per printed line: one a second


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None  # the thread or process exited meanwhile


def sample(pid):
    """{tid: (name, user s, sys s, run delay s, voluntary, involuntary)}
    of the threads alive now."""
    out = {}
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return out
    for tid in tids:
        task = f"/proc/{pid}/task/{tid}"
        stat, status = read(f"{task}/stat"), read(f"{task}/status")
        if stat is None or status is None:
            continue
        name = stat[stat.index("(") + 1 : stat.rindex(")")]
        fields = stat[stat.rindex(")") + 2 :].split()  # fields[0] is field 3
        schedstat = (read(f"{task}/schedstat") or "0 0 0").split()
        switches = {
            key: int(value)
            for key, value in (line.split(":") for line in status.splitlines() if ":" in line)
            if key.endswith("ctxt_switches")
        }
        out[tid] = (
            name,
            int(fields[11]) / TICK,
            int(fields[12]) / TICK,
            int(schedstat[1]) / 1e9,
            switches.get("voluntary_ctxt_switches", 0),
            switches.get("nonvoluntary_ctxt_switches", 0),
        )
    return out


def minor_faults(pid):
    stat = read(f"/proc/{pid}/stat")
    return int(stat[stat.rindex(")") + 2 :].split()[7]) if stat else None  # field 10


def print_line(second, cpu, faults):
    busy = " ".join(f"{n}={u:.2f}/{s:.2f}" for n, (u, s) in sorted(cpu.items()) if u + s >= 0.005)
    print(f"[{second:4.1f}s user/sys] {busy} minflt={faults}", file=sys.stderr)


child = subprocess.Popen(sys.argv[1:])
seen, faults, samples = {}, 0, 0
line_cpu, line_faults = collections.defaultdict(lambda: [0.0, 0.0]), 0
while child.poll() is None:
    time.sleep(PERIOD)
    for tid, now in sample(child.pid).items():
        before = seen.get(tid)
        line_cpu[now[0]][0] += now[1] - (before[1] if before else 0.0)
        line_cpu[now[0]][1] += now[2] - (before[2] if before else 0.0)
        seen[tid] = now
    total_faults = minor_faults(child.pid)
    if total_faults is not None:
        line_faults += total_faults - faults
        faults = total_faults
    samples += 1
    if samples % PER_LINE == 0:
        print_line(samples * PERIOD, line_cpu, line_faults)
        line_cpu, line_faults = collections.defaultdict(lambda: [0.0, 0.0]), 0
if samples % PER_LINE:
    print_line(samples * PERIOD, line_cpu, line_faults)
total = collections.defaultdict(lambda: [0.0, 0.0, 0.0, 0, 0, 0])
for name, user, sys_, delay, vol, invol in seen.values():
    row = total[name]
    row[0] += user
    row[1] += sys_
    row[2] += delay
    row[3] += vol
    row[4] += invol
    row[5] += 1
print(
    f"{'thread':<16} {'n':>3} {'user_s':>8} {'sys_s':>8} {'delay_s':>8} {'vol_cs':>8} {'invol_cs':>8}",
    file=sys.stderr,
)
for name, (user, sys_, delay, vol, invol, n) in sorted(total.items()):
    print(
        f"{name:<16} {n:3d} {user:8.2f} {sys_:8.2f} {delay:8.3f} {vol:8d} {invol:8d}",
        file=sys.stderr,
    )
print(f"process minor faults: {faults}", file=sys.stderr)
sys.exit(child.returncode)
