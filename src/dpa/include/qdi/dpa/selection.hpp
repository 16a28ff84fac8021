// Selection functions D — section IV of the paper:
//
//   DES:  D(C1, P6, K0) = SBOX1(P6 xor K0)(C1)
//   AES:  D(C1, P8, K8) = XOR(P8, K8)(C1)
//
// A selection function maps (plaintext, key guess) to the predicted value
// of one intermediate bit; DPA splits the trace set on that bit (eq. 7).
//
// SelectionFn is an IndexedFn rather than a bare std::function: every
// D-function declares what it actually is, a pure function of ONE
// plaintext byte and the guess, which the streaming engine
// (dpa::OnlineDpa) turns into a per-guess decision table with no
// std::function call on the per-trace hot path. Custom selections are
// built with SelectionFn::byte_indexed().
#pragma once

#include "qdi/dpa/indexed_fn.hpp"

namespace qdi::dpa {

/// D(plaintext, key_guess) in {0, 1}.
using SelectionFn = IndexedFn<int>;

/// AES first-round key addition: bit `bit` of plaintext[byte] ^ guess
/// (the paper's "XOR = a xor function of AES with 8-bit output").
SelectionFn aes_xor_selection(int byte, int bit);

/// AES first-round SubBytes output: bit `bit` of SBOX(plaintext[byte] ^
/// guess) — the more diffusive classic target, used by the ablation
/// benches.
SelectionFn aes_sbox_selection(int byte, int bit);

/// DES SBOX1 first-round output bit. The plaintext span carries the 6-bit
/// S-box input in plaintext[0] (as produced by the DES slice acquisition);
/// guess is the 6-bit subkey chunk.
SelectionFn des_sbox_selection(int box, int bit);

}  // namespace qdi::dpa
