"""Tests for the Section V-C attack-graph construction tool."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import OperationType, ProtectionPoint, TopologicalSortGraph
from repro.graphtool import (
    AuthorizationKind,
    analyze_build,
    analyze_program,
    build_attack_graph,
    find_authorizations,
    find_secret_accesses,
    instruction_node_name,
    patch_program,
    requires_microarch_modelling,
)
from repro.graphtool.classify import MICROARCH_KINDS
from repro.isa import assemble


def gadget_program(gadgets) -> str:
    """Assembly of one gadget per ``(kind, delay)`` pair.

    ``"bounds"`` is a Listing-1 bounds-check gadget (a branch guards the
    secret load), ``"kernel"`` a Listing-2 kernel load (the privilege check
    is a micro-op of the load); ``delay`` ALU ops sit between the secret
    load and the send.
    """
    data = [".data", "probe: address=0x1000000 size=1048576 shared"]
    text = [".text", "    clflush [probe]"]
    for g, (kind, delay) in enumerate(gadgets):
        if kind == "bounds":
            data += [
                f"array_{g}: address={0x300000 + g * 0x1000:#x} size=16",
                f"secret_{g}: address={0x300000 + g * 0x1000 + 0x40:#x} size=1 protected",
                f"bound_{g}: address={0x500000 + g * 0x100:#x} size=8",
            ]
            text += [f"    cmp rdx, [bound_{g}]", f"    ja skip_{g}",
                     f"    mov rax, byte [array_{g} + rdx]"]
        else:
            data.append(f"kdata_{g}: address={0xFFFF8000 + g * 0x100:#x} size=64 kernel protected")
            text.append(f"    mov rax, byte [kdata_{g}]")
        text += ["    add rax, 0"] * delay + ["    shl rax, 12", "    mov rbx, [probe + rax]"]
        if kind == "bounds":
            text.append(f"skip_{g}:")
    return "\n".join(data + text + ["    hlt"]) + "\n"


_GADGETS = st.lists(
    st.tuples(st.sampled_from(["bounds", "kernel"]), st.integers(0, 2)),
    min_size=3,
    max_size=30,
)


def reference_findings(build, points=None):
    """The per-finding analysis: patchability rescans every secret access."""

    def software_patchable(vulnerability):
        software_kinds = {
            site.authorization_kind
            for site in build.secret_accesses
            if site.authorization_kind not in MICROARCH_KINDS
        }
        return bool(software_kinds) and "::" not in vulnerability.dependency.authorization

    return [
        (
            vulnerability.dependency.authorization,
            vulnerability.dependency.protected,
            vulnerability.dependency.point,
            software_patchable(vulnerability),
            vulnerability.description,
        )
        for vulnerability in build.graph.find_vulnerabilities(points=points)
    ]


def finding_rows(report):
    return [
        (f.authorization, f.protected_operation, f.point, f.software_patchable, f.description)
        for f in report.findings
    ]


class TestClassify:
    def test_listing1_authorizations(self, listing1_program):
        kinds = {site.kind for site in find_authorizations(listing1_program)}
        assert AuthorizationKind.BOUNDS_CHECK_BRANCH in kinds

    def test_listing1_secret_access_guarded_by_branch(self, listing1_program):
        sites = find_secret_accesses(listing1_program)
        guarded = [site for site in sites
                   if site.authorization_kind is AuthorizationKind.BOUNDS_CHECK_BRANCH]
        assert guarded and guarded[0].index == 4 and guarded[0].authorization_index == 3

    def test_listing2_secret_access_is_intra_instruction(self, listing2_program):
        sites = find_secret_accesses(listing2_program)
        assert sites
        site = sites[0]
        assert site.authorization_kind is AuthorizationKind.PAGE_PRIVILEGE_CHECK
        assert site.authorization_index == site.index

    def test_modelling_level_decision(self, listing1_program, listing2_program):
        """Figure 9's first decision: faulty access -> micro-architectural modelling."""
        assert not requires_microarch_modelling(listing1_program)
        assert requires_microarch_modelling(listing2_program)

    def test_rdmsr_and_fp_access_detected(self):
        program = assemble(".text\nrdmsr rax, 0x10\nmovd rbx, xmm0\nhlt")
        kinds = {site.authorization_kind for site in find_secret_accesses(program)}
        assert AuthorizationKind.MSR_PRIVILEGE_CHECK in kinds
        assert AuthorizationKind.FPU_OWNER_CHECK in kinds

    def test_store_bypass_detected(self):
        program = assemble(".text\nmov [r10], rax\nmov rbx, [r11]\nhlt")
        kinds = {site.authorization_kind for site in find_secret_accesses(program)}
        assert AuthorizationKind.STORE_LOAD_DISAMBIGUATION in kinds

    def test_unguarded_static_load_is_not_a_secret_access(self):
        program = assemble(
            ".data\npublic: address=0x1000 size=8\n.text\nmov rax, [public]\nhlt"
        )
        assert find_secret_accesses(program) == []


class TestBuilder:
    def test_listing1_graph_races(self, listing1_program):
        build = build_attack_graph(listing1_program)
        graph = build.graph
        assert not build.is_meltdown_type
        vulnerabilities = graph.find_vulnerabilities()
        protected = {v.dependency.protected for v in vulnerabilities}
        load_s = instruction_node_name(4, listing1_program[4])
        send = instruction_node_name(6, listing1_program[6])
        assert load_s in protected
        assert send in protected

    def test_listing1_send_node_detected_via_taint(self, listing1_program):
        build = build_attack_graph(listing1_program)
        send_nodes = build.graph.send_nodes
        assert any("probe_array" in name for name in send_nodes)

    def test_listing2_graph_expands_micro_ops(self, listing2_program):
        build = build_attack_graph(listing2_program)
        assert build.is_meltdown_type
        assert any("permission check" in name for name in build.graph.vertices)
        assert any("read data" in name for name in build.graph.vertices)

    def test_clflush_is_setup(self, listing1_program):
        build = build_attack_graph(listing1_program)
        assert any("clflush" in name for name in build.graph.setup_nodes)

    def test_fenced_program_has_no_access_race(self):
        program = assemble(
            """
            .data
            probe_array:  address=0x1000000 size=1048576 shared
            victim_array: address=0x200000  size=16
            victim_size:  address=0x210000  size=8
            .text
            cmp rdx, [victim_size]
            ja done
            lfence
            mov rax, byte [victim_array + rdx]
            shl rax, 12
            mov rbx, [probe_array + rax]
            done:
            hlt
            """,
            name="fenced",
        )
        report = analyze_program(program)
        assert not report.vulnerable


class TestAnalyzer:
    def test_listing1_report(self, listing1_program):
        report = analyze_program(listing1_program)
        assert report.vulnerable
        assert not report.is_meltdown_type
        assert report.access_findings and report.send_findings
        assert all(finding.software_patchable for finding in report.access_findings)
        assert "missing security dependencies" in report.summary()

    def test_listing2_report_requires_hardware_defense(self, listing2_program):
        report = analyze_program(listing2_program)
        assert report.vulnerable
        assert report.is_meltdown_type
        assert all(not finding.software_patchable for finding in report.findings)

    def test_point_restriction(self, listing1_program):
        report = analyze_program(listing1_program, points=[ProtectionPoint.SEND])
        assert report.findings
        assert all(finding.point is ProtectionPoint.SEND for finding in report.findings)

    def test_extra_protected_symbols_widen_the_analysis(self):
        program = assemble(
            ".data\ndata: address=0x1000 size=8\n.text\nmov rax, [data]\nhlt",
            name="widened",
        )
        assert not analyze_program(program).vulnerable
        assert analyze_program(program, protected_symbols=["data"]).vulnerable


class TestAnalyzeBuildReference:
    """analyze_build against the per-finding reference it replaced."""

    @settings(max_examples=25, deadline=None)
    @given(
        gadgets=_GADGETS,
        points=st.one_of(
            st.none(),
            st.lists(st.sampled_from(list(ProtectionPoint)), min_size=1, max_size=3, unique=True),
        ),
    )
    def test_findings_match_reference(self, gadgets, points):
        build = build_attack_graph(assemble(gadget_program(gadgets), name="gadgets"))
        report = analyze_build(build, points)
        assert finding_rows(report) == reference_findings(build, points)
        assert report.total_racing_pairs == len(build.graph.all_racing_pairs())

    def test_mixed_program_has_both_fixes(self):
        gadgets = [("bounds", 0), ("kernel", 1), ("bounds", 2), ("kernel", 0)]
        build = build_attack_graph(assemble(gadget_program(gadgets), name="mixed"))
        rows = finding_rows(analyze_build(build))
        assert rows == reference_findings(build)
        assert {row[3] for row in rows} == {True, False}

    def test_kernel_only_program_is_never_software_patchable(self):
        gadgets = [("kernel", delay) for delay in (0, 1, 2)]
        build = build_attack_graph(assemble(gadget_program(gadgets), name="kernel"))
        rows = finding_rows(analyze_build(build))
        assert rows and not any(row[3] for row in rows)

    def test_one_pass_per_build(self, monkeypatch):
        """No racing-pair list is built, and the secret accesses are read
        once however many findings there are."""

        class CountingSites(list):
            reads = 0

            def __iter__(self):
                self.reads += 1
                return super().__iter__()

        def forbidden(graph):
            raise AssertionError("analyze_build built the racing pair list")

        gadgets = [("bounds", 1), ("kernel", 0)] * 6
        build = build_attack_graph(assemble(gadget_program(gadgets), name="counted"))
        build.secret_accesses = CountingSites(build.secret_accesses)
        monkeypatch.setattr(TopologicalSortGraph, "all_racing_pairs", forbidden)
        report = analyze_build(build)
        assert len(report.findings) > 100
        assert build.secret_accesses.reads == 1


class TestPatcher:
    def test_patch_listing1_inserts_fence_and_removes_races(self, listing1_program):
        result = patch_program(listing1_program)
        assert result.fences_inserted == (3,)
        assert result.report_before.vulnerable
        assert not result.report_after.vulnerable
        assert result.access_vulnerabilities_removed
        assert len(result.patched) == len(listing1_program) + 1

    def test_patch_preserves_original_program(self, listing1_program):
        original_length = len(listing1_program)
        patch_program(listing1_program)
        assert len(listing1_program) == original_length

    def test_meltdown_findings_reported_unpatchable(self, listing2_program):
        result = patch_program(listing2_program)
        assert result.fences_inserted == ()
        assert result.unpatchable_findings
        assert "hardware" in result.summary() or result.unpatchable_findings

    def test_safe_program_needs_no_patch(self):
        program = assemble(".text\nmov rax, 1\nadd rax, 2\nhlt", name="safe")
        result = patch_program(program)
        assert result.fences_inserted == ()
        assert not result.report_before.vulnerable
