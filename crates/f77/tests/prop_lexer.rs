//! Property tests for the lexer and the fixed-form card assembler.

use cedar_f77::lexer::{assemble_fixed_form, tokenize};
use cedar_f77::token::Tok;
use proptest::prelude::*;

/// Generate a random token that has an unambiguous textual rendering.
fn token_strategy() -> impl Strategy<Value = Tok> {
    prop_oneof![
        "[a-z][a-z0-9]{0,6}"
            .prop_filter("avoid dot-operator words", |s| {
                !matches!(
                    s.as_str(),
                    "eq" | "ne"
                        | "lt"
                        | "le"
                        | "gt"
                        | "ge"
                        | "and"
                        | "or"
                        | "not"
                        | "eqv"
                        | "neqv"
                        | "true"
                        | "false"
                )
            })
            .prop_map(Tok::Ident),
        (0i64..1_000_000).prop_map(Tok::Int),
        Just(Tok::LParen),
        Just(Tok::RParen),
        Just(Tok::Comma),
        Just(Tok::Equals),
        Just(Tok::Plus),
        Just(Tok::Minus),
        Just(Tok::Star),
        Just(Tok::Slash),
        Just(Tok::Pow),
        Just(Tok::Colon),
        Just(Tok::Eq),
        Just(Tok::Ne),
        Just(Tok::Lt),
        Just(Tok::Le),
        Just(Tok::Gt),
        Just(Tok::Ge),
        Just(Tok::And),
        Just(Tok::Or),
        Just(Tok::Not),
        Just(Tok::Logical(true)),
        Just(Tok::Logical(false)),
    ]
}

proptest! {
    /// Rendering a token sequence with spaces and re-lexing returns the
    /// same sequence.
    #[test]
    fn tokens_round_trip(toks in prop::collection::vec(token_strategy(), 1..24)) {
        let text: Vec<String> = toks.iter().map(|t| t.to_string()).collect();
        let line = text.join(" ");
        let relexed = tokenize(&line, 1).unwrap_or_else(|e| panic!("{e}: `{line}`"));
        prop_assert_eq!(relexed, toks);
    }

    /// Fixed-form assembly: any statement split across continuation
    /// cards re-assembles to the same token stream.
    #[test]
    fn continuation_cards_reassemble(
        words in prop::collection::vec("[a-z][a-z0-9]{0,5}", 2..10),
        split in 1usize..8,
    ) {
        let split = split.min(words.len() - 1);
        let stmt = words.join(" + ");
        let one_line = format!("      X = {stmt}\n");
        let head = words[..split].join(" + ");
        let tail = words[split..].join(" + ");
        let two_lines = format!("      X = {head} +\n     &    {tail}\n");

        let a = assemble_fixed_form(&one_line).unwrap();
        let b = assemble_fixed_form(&two_lines).unwrap();
        prop_assert_eq!(a.len(), 1);
        prop_assert_eq!(b.len(), 1);
        let ta = tokenize(&a[0].text, 1).unwrap();
        let tb = tokenize(&b[0].text, 1).unwrap();
        prop_assert_eq!(ta, tb);
    }

    /// Real literals survive the round trip within floating tolerance.
    #[test]
    fn real_literals_lex_exactly(v in 0.0f64..1e6) {
        let text = format!("{v:?}");
        let toks = tokenize(&text, 1).unwrap();
        prop_assert_eq!(toks.len(), 1);
        match &toks[0] {
            Tok::Real { value, .. } => prop_assert_eq!(*value, v),
            Tok::Int(i) => prop_assert_eq!(*i as f64, v),
            other => prop_assert!(false, "unexpected token {:?}", other),
        }
    }
}
