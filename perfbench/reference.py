"""Fixed reference program: how fast the host runs a Python process now.

The harness runs it as a fresh interpreter between the timed calls, the
same way it runs the calls, and scales each call's time by the reference's
times just before and just after it (see ``run.py``).  It imports nothing from flatlink, so a change to the program
cannot move it; only the host can.  The work is shaped like flatlink's:
small tuples in a dict of about 12 MB, larger than the L2 cache, so the
reference slows down with the host's caches and memory as the calls do,
not only with its clock.  About 0.1 s, start-up included, on a 2-core Xeon
VM with Python 3.11.

    python3 perfbench/reference.py
"""


def reference_work(n=60000):
    table = {}
    x = 1
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[(x % 7919, x >> 13)] = i
    acc = 0
    x = 7
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += table.get((x % 7919, x >> 13), 1)
    return acc


if __name__ == "__main__":
    reference_work()
