"""repro.isa — the Ptolemy custom ISA (Table I): 24-bit encoding,
assembler/disassembler, and a functional interpreter (ISS) whose
compiled-program results match the numpy extractor bit-for-bit."""

from repro.isa.encoding import (
    Instruction,
    NUM_REGISTERS,
    Opcode,
    OPERAND_SPECS,
    WORD_BITS,
    decode,
    encode,
)
from repro.isa.program import Program, assemble, disassemble
from repro.isa.machine import FIXED_ONE, Machine, MachineError
from repro.isa.adapter import ModelAdapter

__all__ = [
    "Instruction",
    "Opcode",
    "OPERAND_SPECS",
    "NUM_REGISTERS",
    "WORD_BITS",
    "encode",
    "decode",
    "Program",
    "assemble",
    "disassemble",
    "Machine",
    "MachineError",
    "FIXED_ONE",
    "ModelAdapter",
]
