#!/usr/bin/env python
"""Quickstart for the unified ``Engine`` session API.

The session model: create one :class:`repro.engine.Engine`, let it own the
cached artifacts (attack graphs keyed on ``Program.content_hash()``,
defense evaluations, synthesized graphs), and route every analysis
through it -- build once, analyze many, sweep from the warm caches.

Run from the repo root::

    PYTHONPATH=src python examples/engine_quickstart.py
"""

from __future__ import annotations

from repro.engine import Engine
from repro.isa import assemble

LISTING1 = """
.data
probe_array:  address=0x1000000 size=1048576 shared
victim_array: address=0x200000  size=16
victim_size:  address=0x210000  size=8
secret:       address=0x200048  size=1 protected
.text
    cmp rdx, [victim_size]
    ja done
    mov rax, byte [victim_array + rdx]
    shl rax, 12
    mov rbx, [probe_array + rax]
done:
    hlt
"""


def main() -> None:
    program = assemble(LISTING1, name="victim")

    with Engine() as engine:
        # -- 1. Build once, analyze many ---------------------------------
        # The first analyze constructs the attack graph; the second is a
        # content-hash cache hit (same Result data, microseconds).
        cold = engine.analyze(program)
        warm = engine.analyze(program)
        print(f"cold analyze: cache={cold.cache}, vulnerable={not cold.ok}, "
              f"findings={len(cold.data['findings'])}")
        print(f"warm analyze: cache={warm.cache} "
              f"(stats: {engine.stats()['analyses']})")

        # Mutating the program changes its content hash -> fresh build.
        patched = assemble(LISTING1.replace("ja done", "ja done\n    lfence"),
                           name="victim")
        print(f"hashes differ after patching: "
              f"{program.content_hash() != patched.content_hash()}")
        print(f"patched still vulnerable: {not engine.analyze(patched).ok}")

        # -- 2. Uniform Result envelope ----------------------------------
        # Every analysis returns the same JSON-serializable envelope; this
        # is what `repro analyze --json` / `repro evaluate --json` print.
        print("\nResult envelope (truncated):")
        print(cold.to_json(indent=None)[:120] + "...")

        # -- 3. The defense matrix ----------------------------------------
        # Rows are sorted by (defense, attack) key; every pair lands in the
        # session's evaluation cache.
        matrix = engine.evaluate_matrix()
        print(f"\ndefense matrix: {matrix.subject}, "
              f"{matrix.data['effective']} effective pairings, "
              f"every attack defeated: {matrix.ok}")

        # -- 4. Sweep the Section V-A attack space ------------------------
        # Structurally identical (source, delay) combinations share one
        # graph build.
        space = engine.synthesize()
        print(f"attack space: {space.data['combinations']} combinations, "
              f"{space.data['published']} published, "
              f"{space.data['novel']} novel, {space.data['leaking']} leaking")

        # A second sweep is served from the session's verdict cache.
        again = engine.synthesize()
        assert again.data == space.data
        print(f"cache stats after a second sweep: "
              f"synth_verdicts={engine.stats()['synth_verdicts']}")


if __name__ == "__main__":
    main()
