//! The seeded random guest programs of the cross-model conformance suites:
//! straight-line arithmetic, forward skips, a bounded loop, and stores and
//! loads through a scratch buffer. Every program terminates. Included by
//! `conformance_models.rs` and `watch_sprint_conformance.rs`.

use gemfi_asm::{Assembler, Program, Reg};
use gemfi_campaign::rng::SplitMix64;
use gemfi_isa::IntReg;

/// Scratch-buffer length in 8-byte words.
const BUF_WORDS: u64 = 64;

/// One random instruction appended to the program under construction.
///
/// Operands draw from R1–R8 only, so the loop counters (R10–R12) and the
/// buffer base (R20) stay intact. Forward skips get a fresh label each so a
/// program can contain many of them.
fn random_op(a: &mut Assembler, rng: &mut SplitMix64, skip: &mut usize) {
    let r = |v: u64| IntReg::new(1 + (v % 8) as u8).unwrap();
    let (x, y, z) = (r(rng.next_u64()), r(rng.next_u64()), r(rng.next_u64()));
    match rng.below(14) {
        0 => {
            a.addq(x, y, z);
        }
        1 => {
            a.subq(x, y, z);
        }
        2 => {
            a.mulq(x, y, z);
        }
        3 => {
            a.xor(x, y, z);
        }
        4 => {
            a.and(x, y, z);
        }
        5 => {
            a.bis(x, y, z);
        }
        6 => {
            a.sll_lit(x, (rng.below(64)) as u8, z);
        }
        7 => {
            a.srl_lit(x, (rng.below(64)) as u8, z);
        }
        8 => {
            a.cmplt(x, y, z);
        }
        9 => {
            a.cmovge(x, y, z);
        }
        10 => {
            a.addq_lit(x, rng.below(256) as u8, z);
        }
        11 | 12 => {
            // Bounded store + load through the scratch buffer.
            let off = (rng.below(BUF_WORDS) * 8) as i16;
            a.stq(x, off, Reg::R20);
            a.ldq(z, off, Reg::R20);
        }
        _ => {
            // Forward skip over a couple of instructions: branchy control
            // flow without the risk of an unbounded loop.
            let label = format!("skip{}", *skip);
            *skip += 1;
            match rng.below(4) {
                0 => a.beq(x, &label),
                1 => a.bne(x, &label),
                2 => a.blt(x, &label),
                _ => a.bge(x, &label),
            };
            for _ in 0..rng.range_inclusive(1, 3) {
                let (p, q, s) = (r(rng.next_u64()), r(rng.next_u64()), r(rng.next_u64()));
                a.addq(p, q, s);
            }
            a.label(&label);
        }
    }
}

/// A seeded random program: register seeding, a straight-line prefix, then
/// a counted loop whose body is also random. Always terminates.
pub fn random_program(seed: u64) -> Program {
    let mut rng = SplitMix64::new(seed);
    let mut a = Assembler::new();
    a.dsym("buf");
    a.data_u64(&[0u64; BUF_WORDS as usize]);
    a.la(Reg::R20, "buf");
    for i in 1..=8u8 {
        a.li(IntReg::new(i).unwrap(), rng.next_u64() as u32 as i64);
    }
    let mut skip = 0;
    for _ in 0..rng.range_inclusive(24, 48) {
        random_op(&mut a, &mut rng, &mut skip);
    }
    a.li(Reg::R10, 0);
    a.li(Reg::R11, rng.range_inclusive(8, 32) as i64);
    a.label("loop");
    for _ in 0..rng.range_inclusive(4, 10) {
        random_op(&mut a, &mut rng, &mut skip);
    }
    a.addq_lit(Reg::R10, 1, Reg::R10);
    a.cmplt(Reg::R10, Reg::R11, Reg::R12);
    a.bne(Reg::R12, "loop");
    a.exit(0);
    a.finish().expect("random program assembles")
}
