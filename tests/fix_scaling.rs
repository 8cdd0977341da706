//! Size-doubling guard for `hetmem fix`: its delete phase is a fixed
//! number of linear passes over the checker's records, so doubling a
//! program must not much more than double the time `fix` takes.

use std::time::{Duration, Instant};

use hetmem::dsl::{fix, parse_program, AddressSpace, Program};

/// `n` copies of the loop `body` over two initialized buffers.
fn family(body: &str, n: usize) -> Program {
    let src = format!(
        "program fam {{ compute 1; buffer a: 64; buffer b: 64; init a, b; {} }}",
        body.repeat(n)
    );
    parse_program(&src).expect("the family parses")
}

/// The best wall times of five `fix` runs on each of `small` and
/// `large`, taken in turn so that a busy spell on the host slows both.
fn best_of_five(small: &Program, large: &Program, model: AddressSpace) -> (Duration, Duration) {
    let time = |program| {
        let started = Instant::now();
        std::hint::black_box(fix(program, model));
        started.elapsed()
    };
    (0..5).fold((Duration::MAX, Duration::MAX), |(s, l), _| {
        (s.min(time(small)), l.min(time(large)))
    })
}

#[test]
fn fix_time_at_most_about_doubles_with_the_program() {
    let families = [
        (
            "loop 2 { gpu p(read b; write a); cpu c(read a; write b); } ",
            AddressSpace::Disjoint,
            1000,
        ),
        (
            "loop 2 { gpu p(read b; write a); gpu q(read a; write b); \
             cpu c(read a; write b); } ",
            AddressSpace::PartiallyShared,
            400,
        ),
    ];
    for (body, model, n) in families {
        let (small, large) = best_of_five(&family(body, n), &family(body, 2 * n), model);
        let ratio = large.as_secs_f64() / small.as_secs_f64();
        eprintln!("{model}: n = {n}: {small:?}, 2n: {large:?}, ratio {ratio:.2}");
        assert!(
            ratio <= 2.5,
            "{model}: fix took {small:?} at n = {n} and {large:?} at 2n ({ratio:.2}x)"
        );
    }
}
