"""Cross-layer integration tests.

These tests check that the three layers of the reproduction agree with each
other: the abstract attack-graph model (core / attacks / defenses), the
program-level tool (isa / graphtool), and the executable substrate
(uarch / channels / exploits).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.attacks import get as get_attack
from repro.defenses import DefenseStrategy, evaluate_defense, get as get_defense
from repro.exploits import EXPLOITS
from repro.graphtool import analyze_program, patch_program
from repro.isa import assemble
from repro.uarch import DEFENSE_STRATEGY, SimDefense, SpeculativeCPU, UarchConfig


#: Graph-model attacks paired with their simulator exploit and a simulator
#: defense implementing each paper strategy that should (or should not) work.
MODEL_TO_SIM = {
    "spectre_v1": "spectre_v1",
    "spectre_v2": "spectre_v2",
    "spectre_rsb": "spectre_rsb",
    "spectre_v4": "spectre_v4",
    "meltdown": "meltdown",
    "foreshadow": "foreshadow",
    "spectre_v3a": "spectre_v3a",
    "lazy_fp": "lazy_fp",
}


class TestModelMatchesSimulator:
    @pytest.mark.parametrize("attack_key", sorted(MODEL_TO_SIM))
    def test_vulnerable_model_means_leaking_simulator(self, attack_key):
        """Every attack the graph model flags as vulnerable actually leaks."""
        graph = get_attack(attack_key).build_graph()
        assert graph.is_vulnerable()
        result = EXPLOITS[MODEL_TO_SIM[attack_key]]()
        assert result.success

    def test_strategy2_agrees_across_layers_for_spectre(self):
        """NDA-style 'prevent use' defeats Spectre v1 in the model and on the simulator."""
        model_verdict = evaluate_defense(get_defense("nda"), get_attack("spectre_v1")).effective
        sim_verdict = not EXPLOITS["spectre_v1"](
            UarchConfig().with_defenses(SimDefense.NO_SPECULATIVE_FORWARDING)
        ).success
        assert model_verdict and sim_verdict

    def test_strategy3_agrees_across_layers_for_meltdown(self):
        """InvisiSpec-style 'prevent send' defeats Meltdown in the model and on the simulator."""
        model_verdict = evaluate_defense(get_defense("invisispec"), get_attack("meltdown")).effective
        sim_verdict = not EXPLOITS["meltdown"](
            UarchConfig().with_defenses(SimDefense.INVISIBLE_SPECULATION)
        ).success
        assert model_verdict and sim_verdict

    def test_strategy4_agrees_across_layers(self):
        """Predictor clearing defeats Spectre v2 but not Meltdown, in both layers."""
        assert evaluate_defense(get_defense("ibpb"), get_attack("spectre_v2")).effective
        assert not EXPLOITS["spectre_v2"](
            UarchConfig().with_defenses(SimDefense.FLUSH_PREDICTORS)
        ).success
        assert not evaluate_defense(get_defense("ibpb"), get_attack("meltdown")).effective
        assert EXPLOITS["meltdown"](
            UarchConfig().with_defenses(SimDefense.FLUSH_PREDICTORS)
        ).success

    def test_wrong_place_defense_agrees_across_layers(self):
        """KPTI (prevent access to unmapped kernel pages) stops Meltdown but not
        Foreshadow -- in the graph model via the L1-cache source, and on the
        simulator via the L1TF behaviour."""
        assert not EXPLOITS["meltdown"](
            UarchConfig().with_defenses(SimDefense.KERNEL_ISOLATION)
        ).success
        assert EXPLOITS["foreshadow"](
            UarchConfig().with_defenses(SimDefense.KERNEL_ISOLATION)
        ).success
        kpti = get_defense("kpti")
        assert not kpti.applies_to(get_attack("foreshadow"))

    def test_every_sim_defense_strategy_has_a_model_counterpart(self):
        assert set(DEFENSE_STRATEGY.values()) == set(DefenseStrategy)


class TestToolMatchesSimulator:
    SPECTRE_TEXT = """
    .data
    probe:  address=0x1000000 size=1048576 shared
    arr:    address=0x200000  size=16
    size:   address=0x210000  size=8
    secret: address=0x200048  size=1 protected
    .text
    victim:
    cmp rdx, [size]
    ja done
    mov rax, byte [arr + rdx]
    shl rax, 12
    mov rbx, [probe + rax]
    done:
    hlt
    """

    def _leak(self, program_text: str) -> bool:
        """Train, flush, run the program on the simulator; did it leak transiently?"""
        program = assemble(program_text, name="victim")
        cpu = SpeculativeCPU(program, UarchConfig())
        cpu.write_memory(0x210000, 16, 8)
        cpu.write_memory(0x200048, 0x5A, 1)
        for _ in range(3):
            cpu.set_register("rdx", 1)
            cpu.run("victim")
        cpu.flush_range(0x1000000, 256 * 4096)
        cpu.flush_symbol("size")
        cpu.set_register("rdx", 0x48)
        cpu.run("victim")
        return cpu.cache.contains(0x1000000 + 0x5A * 4096)

    def test_tool_flags_the_program_that_leaks(self):
        program = assemble(self.SPECTRE_TEXT, name="victim")
        assert analyze_program(program).vulnerable
        assert self._leak(self.SPECTRE_TEXT)

    def test_tool_patch_stops_the_leak_on_the_simulator(self):
        """The fence the tool inserts actually prevents the transient leak."""
        program = assemble(self.SPECTRE_TEXT, name="victim")
        patch = patch_program(program)
        assert not patch.report_after.vulnerable
        patched_listing = self.SPECTRE_TEXT.replace("ja done\n", "ja done\n    lfence\n")
        assert not self._leak(patched_listing)

    def test_tool_classification_matches_registry(self):
        """The tool's Spectre-type / Meltdown-type decision matches the catalog."""
        spectre_report = analyze_program(assemble(self.SPECTRE_TEXT, name="victim"))
        assert spectre_report.is_meltdown_type == get_attack("spectre_v1").is_meltdown_type

        meltdown_text = """
        .data
        probe:   address=0x1000000 size=1048576 shared
        ksecret: address=0xffff0000 size=64 kernel protected
        .text
        mov rax, byte [ksecret]
        shl rax, 12
        mov rbx, [probe + rax]
        hlt
        """
        meltdown_report = analyze_program(assemble(meltdown_text, name="meltdown"))
        assert meltdown_report.is_meltdown_type == get_attack("meltdown").is_meltdown_type


def test_repro_imports_without_numpy():
    """The library is stdlib-only: importing its entry points loads no numpy.

    Runs in a fresh interpreter, since this test process may already hold
    numpy through a test dependency.
    """
    probe = (
        "import sys\n"
        "import repro, repro.engine, repro.fuzz, repro.service.server\n"
        "assert 'numpy' not in sys.modules, sorted("
        "m for m in sys.modules if m.split('.')[0] == 'numpy')[:5]\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
