#include "workloads/range_stress.hh"

namespace liquid
{

namespace
{

/**
 * Loop bound passed in a register: main pins r5 = 64, fn loops on
 * `cmp r1, r5`. Without entry facts the mirror walk hits a branch on
 * runtime data (Warn); the interprocedural analysis proves r5 = 64
 * over the single call site and the walk turns concrete.
 */
std::string
liveinBoundSrc()
{
    return R"(.words a 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64
.data b 256

fn:
    mov r1, #0
loop:
    ldw r2, [a + r1]
    add r2, r2, #3
    stw [b + r1], r2
    add r1, r1, #1
    cmp r1, r5
    blt loop
    ret

main:
    mov r5, #64
    bl.simd fn
    halt
)";
}

/**
 * Loop bound round-trips through a memory cell in the caller: main
 * stores 64 into `nb`, reloads it into r5, then calls. (The load must
 * live in the caller — captured regions forbid non-indexed loads, and
 * indexed loads become per-lane values.) Proving r5 = 64 at entry
 * requires the abstract memory model: the strong store must survive
 * to the reload and the reload to the call at the joint fixpoint.
 */
std::string
cellBoundSrc()
{
    return R"(.words a 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64
.data b 256
.data nb 4

fn:
    mov r1, #0
loop:
    ldw r2, [a + r1]
    add r2, r2, #3
    stw [b + r1], r2
    add r1, r1, #1
    cmp r1, r5
    blt loop
    ret

main:
    mov r2, #64
    stw [nb], r2
    ldw r5, [nb]
    bl.simd fn
    halt
)";
}

/**
 * Negative control: two call sites pass different bounds, so the
 * joined entry value of r5 is the non-singleton [32, 64] and no
 * constant fact exists. The region must STAY Warn with facts on —
 * upgrading it would be unsound (the analysis would be inventing a
 * bound the program does not have).
 */
std::string
joinNegativeSrc()
{
    return R"(.words a 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64
.data b 256

fn:
    mov r1, #0
loop:
    ldw r2, [a + r1]
    add r2, r2, #3
    stw [b + r1], r2
    add r1, r1, #1
    cmp r1, r5
    blt loop
    ret

main:
    mov r5, #64
    bl.simd fn
    mov r5, #32
    bl.simd fn
    halt
)";
}

/**
 * 32-bit wraparound: r2 is the *known* non-constant interval
 * [65536, 65543] (const live-in plus the induction variable — a load
 * would go to top and mask the mutation), so squaring it overflows
 * the 32-bit word while the abstract square [2^32, ...] lies entirely
 * above INT32_MAX. The sound transfer widens to the signed width top
 * (keeping only the power-of-two stride); the SabWrapClamp mutation
 * clamps into top32 — an empty interval here — and the differential
 * oracle must observe the dynamically wrapped value escaping it.
 */
std::string
wrapSrc()
{
    return R"(.data outw 32

fn:
    mov r1, #0
loop:
    add r2, r6, r1
    mul r2, r2, r2
    stw [outw + r1], r2
    add r1, r1, #1
    cmp r1, #8
    blt loop
    ret

main:
    mov r6, #65536
    bl.simd fn
    halt
)";
}

/**
 * Store-aliasing: the loop's store offset runs *downward* (r4 = 1,
 * then 0), so the one singleton pass through the body — the first
 * abstract iteration, before the loop join makes r4 non-singleton —
 * strongly updates nb+4, not nb. The store that dynamically clobbers
 * the nb cell (iteration 1, value 1) only ever executes under a
 * non-singleton abstract address. The sound analysis havocs memory
 * there and reads the reload as top; the SabStoreNoHavoc mutation
 * keeps the stale entry cell (r5 = 8) and the oracle must observe the
 * dynamically clobbered value (1) escaping it.
 */
std::string
storeAliasSrc()
{
    return R"(.data nb 8

fn:
    mov r1, #0
    mov r4, #1
loop:
    stw [nb + r4], r1
    sub r4, r4, #1
    add r1, r1, #1
    cmp r1, #2
    blt loop
    ldw r5, [nb]
    ret

main:
    mov r2, #8
    stw [nb], r2
    bl.simd fn
    halt
)";
}

} // namespace

const std::vector<RangeStressCase> &
rangeStressCases()
{
    static const std::vector<RangeStressCase> cases = {
        {"rs_livein_bound",
         "loop bound is caller state (branch on runtime data)", true,
         liveinBoundSrc()},
        {"rs_cell_bound",
         "loop bound flows through a memory cell", true,
         cellBoundSrc()},
        {"rs_join_negative",
         "call sites disagree on the bound (no constant fact)", false,
         joinNegativeSrc()},
        {"rs_wrap",
         "32-bit wraparound oracle probe (closed region)", false,
         wrapSrc()},
        {"rs_store_alias",
         "store aliases the reloaded bound cell (oracle probe)", false,
         storeAliasSrc()},
    };
    return cases;
}

} // namespace liquid
