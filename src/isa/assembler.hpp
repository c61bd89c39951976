// AR32 two-pass assembler.
//
// Turns textual AR32 assembly into an AssembledProgram: a code image (based
// at address 0), a data image (based at 0x10000), and a symbol table. The
// bundled benchmark kernels (src/sim/kernels.cpp) are written in this
// syntax.
//
// Syntax summary (one statement per line, ';' starts a comment):
//
//   label:                       ; labels may share a line with a statement
//   .code                        ; switch to the code section (default)
//   .data                        ; switch to the data section
//   .word  v[, v...]             ; 32-bit values (integers or label[+/-off])
//   .half  v[, v...]             ; 16-bit values
//   .byte  v[, v...]             ; 8-bit values
//   .space N                     ; N zero bytes
//   .align N                     ; pad with zeros to an N-byte boundary
//   .rand  COUNT, SEED           ; COUNT deterministic pseudo-random words
//   .randsmooth COUNT, SEED, D   ; COUNT random-walk words (|step| <= D) —
//                                ; models smooth media/sensor data
//
//   add  r1, r2, r3              ; R-type ALU
//   addi r1, r2, #-4             ; I-type ALU ('#' on immediates optional)
//   ldw  r1, [r2, #8]            ; load/store, offset defaults to 0
//   ldwx r1, [r2, r3]            ; register-offset load/store
//   cmp  r1, r2 / cmpi r1, #5    ; set flags
//   beq loop / b done / bl fn    ; branches and calls take label operands
//   jr lr                        ; indirect jump
//
// Pseudo-instructions (expanded by the assembler):
//   li  rd, value-or-label       ; 32-bit constant load (always 2 words)
//   la  rd, label                ; alias of li
//   ret                          ; jr lr
//   push rd / pop rd             ; full-descending stack ops (2 words each)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>


namespace memopt {

/// Output of the assembler.
struct AssembledProgram {
    std::vector<std::uint32_t> code;             ///< instruction words, based at 0
    std::vector<std::uint8_t> data;              ///< data image, based at data_base
    std::uint64_t data_base = 0;                 ///< byte address of data[0]
    std::map<std::string, std::uint64_t> symbols;  ///< label -> byte address

    /// Byte address of a symbol; throws memopt::Error if undefined.
    std::uint64_t symbol(const std::string& name) const;
};

/// Assemble AR32 source. Throws memopt::Error with a line-numbered message
/// on any syntax or range error.
AssembledProgram assemble(std::string_view source);

/// The deterministic word stream behind the `.rand` directive (SplitMix64).
/// Exposed so tests can reproduce kernel input data exactly.
std::vector<std::uint32_t> asm_random_words(std::size_t count, std::uint64_t seed);

/// The deterministic random-walk stream behind `.randsmooth`: word i+1 =
/// word i + step, with step uniform in [-max_delta, +max_delta] (wrapping
/// 32-bit arithmetic). Exposed so tests can reproduce kernel input data.
std::vector<std::uint32_t> asm_smooth_words(std::size_t count, std::uint64_t seed,
                                            std::uint32_t max_delta);

}  // namespace memopt
