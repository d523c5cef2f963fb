"""Functional interpreter (ISS) for the Ptolemy ISA.

Executes compiled detection programs concretely: path-construction
instructions (``sort``/``acum``/``genmasks``/``cls`` and the scalar
loop scaffolding) operate on a flat word-addressed memory, while the
CISC inference instructions (``inf``/``infsp``/``csps``/``findneuron``/
``findrf``) delegate to a model adapter — mirroring the real hardware,
where those operations run on the accelerator's FSM-sequenced blocks.

Data conventions (shared with the compiler):

* *pair lists* — ``mem[base]`` = count N, then N (value, index) pairs
  in 2N words.  Produced by ``csps``, permuted by ``sort``.
* *index lists* — ``mem[base]`` = count, then indices.  Appended to by
  ``acum``, consumed by ``genmasks``.
* *mask regions* — one word per bit (0.0/1.0).  The ISS trades packing
  density for clarity; the hardware model accounts bits as bits.
* *class paths* — ``mem[base]`` = length, then length mask words.

Fixed point: thresholds are Q8 (``mov rd, round(theta * 256)``); the
``mul`` instruction is a Q8 x value multiply, so a theta whose binary
expansion fits 8 fractional bits (0.5, 0.25, ...) is exact and the ISS
reproduces the numpy extractor bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.isa.encoding import Instruction, Opcode
from repro.isa.program import Program

__all__ = ["Machine", "MachineError", "FIXED_ONE"]

#: Q8 fixed-point scale used by mov/mul for thresholds.
FIXED_ONE = 256


class MachineError(RuntimeError):
    """Raised on invalid execution (bad address, missing adapter...)."""


@dataclass
class ExecutionStats:
    """Dynamic instruction counts by opcode name."""

    counts: dict = field(default_factory=dict)
    total: int = 0

    def bump(self, opcode: Opcode) -> None:
        self.counts[opcode.name] = self.counts.get(opcode.name, 0) + 1
        self.total += 1


class Machine:
    """The Ptolemy ISS: 16 registers, Z flag, word-addressed memory."""

    def __init__(self, memory_words: int = 1 << 18, adapter=None):
        if memory_words <= 0:
            raise ValueError("memory_words must be positive")
        self.memory = np.zeros(memory_words, dtype=np.float64)
        self.regs: List[float] = [0] * 16
        self.zflag = False
        self.pc = 0
        self.adapter = adapter
        self.stats = ExecutionStats()
        self.result: Optional[float] = None

    # -- memory helpers ---------------------------------------------------
    def _addr(self, value) -> int:
        addr = int(value)
        if not 0 <= addr < self.memory.size:
            raise MachineError(f"address {addr} out of bounds")
        return addr

    def read(self, addr) -> float:
        return float(self.memory[self._addr(addr)])

    def write(self, addr, value: float) -> None:
        self.memory[self._addr(addr)] = value

    # -- execution ----------------------------------------------------
    def run(self, program: Program, max_steps: int = 50_000_000) -> ExecutionStats:
        """Execute until ``halt``; returns dynamic instruction stats."""
        self.pc = 0
        steps = 0
        n = len(program.instructions)
        while self.pc < n:
            if steps >= max_steps:
                raise MachineError("instruction budget exceeded (runaway loop?)")
            instr = program.instructions[self.pc]
            self.stats.bump(instr.opcode)
            steps += 1
            if instr.opcode is Opcode.HALT:
                break
            self._execute(instr)
        return self.stats

    def _execute(self, instr: Instruction) -> None:
        op = instr.opcode
        ops = instr.operands
        if op is Opcode.MOV:
            self.regs[ops[0]] = ops[1]
        elif op is Opcode.MOVR:
            self.regs[ops[0]] = self.regs[ops[1]]
        elif op is Opcode.DEC:
            self.regs[ops[0]] = self.regs[ops[0]] - 1
            self.zflag = self.regs[ops[0]] == 0
        elif op is Opcode.ADD:
            self.regs[ops[0]] = self.regs[ops[1]] + self.regs[ops[2]]
        elif op is Opcode.MUL:
            # Q8 fixed-point multiply against a memory operand:
            # rd = (rd * mem[rs]) / 256  (the paper's `mul r5, (r4)`)
            value = self.read(self.regs[ops[1]])
            self.regs[ops[0]] = self.regs[ops[0]] * value / FIXED_ONE
        elif op is Opcode.JNE:
            if not self.zflag:
                self.pc = ops[0]
                return
        elif op is Opcode.SORT:
            self._sort(ops)
        elif op is Opcode.ACUM:
            self._acum(ops)
        elif op is Opcode.GENMASKS:
            self._genmasks(ops)
        elif op is Opcode.CLS:
            self._cls(ops)
        elif op in (Opcode.INF, Opcode.INFSP, Opcode.CSPS,
                    Opcode.FINDNEURON, Opcode.FINDRF):
            self._delegate(op, ops)
        else:  # pragma: no cover - all opcodes handled above
            raise MachineError(f"unimplemented opcode {op.name}")
        self.pc += 1

    # -- path-construction semantics -----------------------------------
    def _sort(self, ops) -> None:
        """sort rs_src, rs_len, rs_dst — descending by value over a
        count-prefixed (value, index) pair list."""
        src = self._addr(self.regs[ops[0]])
        declared = int(self.regs[ops[1]])
        dst = self._addr(self.regs[ops[2]])
        count = int(self.memory[src])
        if count > declared:
            raise MachineError(
                f"sort: pair list ({count}) exceeds declared length ({declared})"
            )
        pairs = self.memory[src + 1 : src + 1 + 2 * count].reshape(count, 2)
        order = np.argsort(-pairs[:, 0], kind="stable")
        self.memory[dst] = count
        self.memory[dst + 1 : dst + 1 + 2 * count] = pairs[order].ravel()

    def _acum(self, ops) -> None:
        """acum rs_src, rs_dst, rs_threshold — walk a sorted pair list,
        appending indices to the dst index list until the cumulative
        value reaches the threshold register (the theta x neuron-value
        target computed by mov/mul)."""
        src = self._addr(self.regs[ops[0]])
        dst = self._addr(self.regs[ops[1]])
        target = float(self.regs[ops[2]])
        count = int(self.memory[src])
        existing = int(self.memory[dst])
        if target <= 0.0:
            # a strictly negative target marks a low-confidence neuron:
            # keep its strongest positive contributor (the same rule as
            # the reference extractor).  A zero target is the gated-off
            # case and selects nothing.
            if target < 0.0 and count and self.memory[src + 1] > 0.0:
                self.memory[dst + 1 + existing] = self.memory[src + 2]
                self.memory[dst] = existing + 1
            return
        csum = 0.0
        appended = 0
        for i in range(count):
            value = self.memory[src + 1 + 2 * i]
            index = self.memory[src + 2 + 2 * i]
            csum += value
            self.memory[dst + 1 + existing + appended] = index
            appended += 1
            if csum >= target:
                break
        self.memory[dst] = existing + appended

    def _genmasks(self, ops) -> None:
        """genmasks rs_src, rs_dst — set mask words for every index in
        the count-prefixed index list (OR semantics: already-set words
        stay set), then clear the list.

        Set mask words hold ``FIXED_ONE`` rather than 1.0 so that the
        compiler's branch-free importance gating — ``mul`` of a
        threshold register by the mask word — multiplies by exactly 1
        under Q8 semantics (or by 0 for unset words).
        """
        src = self._addr(self.regs[ops[0]])
        dst = self._addr(self.regs[ops[1]])
        count = int(self.memory[src])
        for i in range(count):
            index = int(self.memory[src + 1 + i])
            self.memory[self._addr(dst + index)] = float(FIXED_ONE)
        self.memory[src] = 0

    def _cls(self, ops) -> None:
        """cls rs_classpath, rs_actpath, rd — similarity
        S = ||P & Pc||_1 / ||P||_1 between the count-prefixed class
        path and the activation path mask region."""
        cp = self._addr(self.regs[ops[0]])
        ap = self._addr(self.regs[ops[1]])
        length = int(self.memory[cp])
        canary = self.memory[cp + 1 : cp + 1 + length] != 0
        path = self.memory[ap : ap + length] != 0
        ones = int(path.sum())
        sim = float((path & canary).sum() / ones) if ones else 0.0
        self.regs[ops[2]] = sim
        self.result = sim

    # -- CISC delegation -------------------------------------------------
    def _delegate(self, op: Opcode, ops) -> None:
        if self.adapter is None:
            raise MachineError(f"{op.name} requires a model adapter")
        if op is Opcode.INF:
            self.adapter.inf(self, *[self.regs[o] for o in ops])
        elif op is Opcode.INFSP:
            self.adapter.infsp(self, *[self.regs[o] for o in ops])
        elif op is Opcode.CSPS:
            self.adapter.csps(
                self,
                int(self.regs[ops[0]]),
                int(self.regs[ops[1]]),
                int(self.regs[ops[2]]),
            )
        elif op is Opcode.FINDNEURON:
            addr = self.adapter.findneuron(
                self, int(self.regs[ops[0]]), int(self.regs[ops[1]])
            )
            self.regs[ops[2]] = addr
        elif op is Opcode.FINDRF:
            addr = self.adapter.findrf(self, int(self.regs[ops[0]]))
            self.regs[ops[1]] = addr

