//! Golden of the `test_time` binary: cycles-to-coverage per style, which
//! runs `pairs_to_reach_coverage` (64-pair stop points) and 4096-pair
//! broadside campaigns (16 pair blocks) on every profile up to 3000
//! gates. Any change to the pair stream, fault dropping or the stop rule
//! moves a figure here.

use std::process::Command;

#[test]
fn test_time_output_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_test_time"))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("golden/test_time.txt")
    );
}
