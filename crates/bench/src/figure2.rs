//! `maxlength figure2`: regenerates Figure 2, the prefix trie for AS 31283's minimal ROA
//! before and after `compress_roas`, 4 PDUs → 2 PDUs.

use maxlength_core::compress::{compress_roas, expand_authorized};
use rpki_roa::Vrp;

pub fn run(_: &crate::Args) {
    let input: Vec<Vrp> = [
        "87.254.32.0/19 => AS31283",
        "87.254.32.0/20 => AS31283",
        "87.254.48.0/20 => AS31283",
        "87.254.32.0/21 => AS31283",
    ]
    .iter()
    .map(|s| s.parse().expect("static"))
    .collect();

    println!("Figure 2: the IPv4 prefix trie for AS 31283\n");
    println!("before compression ({} PDUs):", input.len());
    println!(
        r#"
            87.254.32.0/19 (ml 19)
             /             \
  87.254.32.0/20 (ml 20)   87.254.48.0/20 (ml 20)
       /
  87.254.32.0/21 (ml 21)
"#
    );
    for v in &input {
        println!("    {v}");
    }

    let output = compress_roas(&input);
    println!("\nafter compress_roas ({} PDUs):", output.len());
    println!(
        r#"
            87.254.32.0/19 (ml 20)   <- children merged, maxLength raised
       /
  87.254.32.0/21 (ml 21)             <- survives: exceeds parent's maxLength
"#
    );
    for v in &output {
        println!("    {v}");
    }

    assert_eq!(output.len(), 2, "the paper's 4 -> 2 reduction");
    let same = expand_authorized(&input) == expand_authorized(&output);
    println!(
        "\nauthorized route sets identical: {same} (still minimal; \
         87.254.40.0/21 remains unauthorized)"
    );
    assert!(same);
}
