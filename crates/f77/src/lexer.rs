//! Line assembly (fixed-form card handling, continuation, labels) and
//! statement tokenization.

use crate::error::{Error, Result};
use crate::span::Span;
use crate::token::Tok;
use std::borrow::Cow;

/// One logical statement line after card assembly: label (if any), the
/// statement text with continuations joined, and the line number of the
/// initial card.
#[derive(Debug, Clone)]
pub struct LogicalLine {
    /// Statement label from columns 1–5, if any.
    pub label: Option<u32>,
    /// Statement text with continuations joined.
    pub text: String,
    /// Line number of the initial card.
    pub line: u32,
}

/// Assemble fixed-form cards into logical lines.
///
/// * Column 1 `C`, `c`, `*`, or `!` anywhere outside a character context
///   starts a comment.
/// * Columns 1–5 hold an optional numeric statement label.
/// * A non-blank, non-`0` character in column 6 marks a continuation of
///   the previous statement.
/// * Unlike strict F77 we do **not** discard text beyond column 72; the
///   workloads are authored within the limit and hand-edited files often
///   drift past it harmlessly.
pub fn assemble_fixed_form(src: &str) -> Result<Vec<LogicalLine>> {
    let mut out: Vec<LogicalLine> = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let bytes = line.as_bytes();
        // OpenMP conditional-compilation sentinel: `!$omp` in columns
        // 1–5 makes the card a directive, not a comment; `!$omp&` (an
        // `&` in column 6) continues the previous directive line.
        if line.get(..5).is_some_and(|p| p.eq_ignore_ascii_case("!$omp")) && line.len() > 5 {
            let after = &line[5..];
            if let Some(cont) = after.strip_prefix('&') {
                let rest = strip_inline_comment(cont);
                match out.last_mut() {
                    Some(prev) => {
                        prev.text.push(' ');
                        prev.text.push_str(rest.trim());
                        continue;
                    }
                    None => {
                        return Err(Error::structure(
                            Span::new(lineno),
                            "`!$omp&` continuation with no directive to continue",
                        ))
                    }
                }
            }
            let text = format!("$omp {}", strip_inline_comment(after).trim());
            out.push(LogicalLine { label: None, text, line: lineno });
            continue;
        }
        match bytes[0] {
            b'C' | b'c' | b'*' | b'!' => continue,
            _ => {}
        }
        // Continuation card?
        if bytes.len() > 6 {
            let c6 = bytes[5];
            let head = &line[..5];
            if c6 != b' ' && c6 != b'0' && head.trim().is_empty() {
                let rest = strip_inline_comment(&line[6..]);
                match out.last_mut() {
                    Some(prev) => {
                        prev.text.push(' ');
                        prev.text.push_str(rest.trim());
                        continue;
                    }
                    None => {
                        return Err(Error::structure(
                            Span::new(lineno),
                            "continuation card with no statement to continue",
                        ))
                    }
                }
            }
        }
        // Initial card: split label field / statement field.
        let (label_field, stmt_field) = if line.len() > 6 {
            (&line[..5], &line[6..])
        } else if line.len() >= 5 {
            (&line[..5], "")
        } else {
            (line, "")
        };
        let label_txt = label_field.trim();
        let label = if label_txt.is_empty() {
            None
        } else {
            Some(label_txt.parse::<u32>().map_err(|_| {
                Error::lex(Span::new(lineno), format!("label field `{label_txt}` is not a number"))
            })?)
        };
        let text = strip_inline_comment(stmt_field).trim().to_string();
        if text.is_empty() && label.is_none() {
            continue;
        }
        out.push(LogicalLine { label, text, line: lineno });
    }
    Ok(out)
}

/// Assemble free-form lines: `!` comments, a leading integer is a label,
/// a trailing `&` continues onto the next line.
pub fn assemble_free_form(src: &str) -> Result<Vec<LogicalLine>> {
    let mut out: Vec<LogicalLine> = Vec::new();
    let mut pending_cont = false;
    for (idx, raw) in src.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let t = raw.trim_start();
        // `!$omp` sentinel (directive, not comment) — same as fixed form;
        // a trailing `&` continues it through the ordinary mechanism.
        let line: Cow<'_, str> =
            if t.get(..5).is_some_and(|p| p.eq_ignore_ascii_case("!$omp")) && t.len() > 5 {
                format!("$omp {}", strip_inline_comment(&t[5..]).trim()).into()
            } else {
                strip_inline_comment(raw).trim().into()
            };
        if line.is_empty() {
            pending_cont = false;
            continue;
        }
        let (body, continues) = match line.strip_suffix('&') {
            Some(b) => (b.trim_end(), true),
            None => (&*line, false),
        };
        if pending_cont {
            let prev = out.last_mut().expect("continuation without previous line");
            prev.text.push(' ');
            prev.text.push_str(body);
        } else {
            // Leading integer token is a statement label.
            let trimmed = body.trim_start();
            let digits = trimmed.bytes().take_while(u8::is_ascii_digit).count();
            let (label, text) = if digits > 0 && trimmed[digits..].starts_with([' ', '\t']) {
                (
                    Some(
                        trimmed[..digits]
                            .parse::<u32>()
                            .map_err(|_| Error::lex(Span::new(lineno), "label too large"))?,
                    ),
                    trimmed[digits..].trim(),
                )
            } else {
                (None, trimmed)
            };
            out.push(LogicalLine { label, text: text.to_string(), line: lineno });
        }
        pending_cont = continues;
    }
    Ok(out)
}

/// Remove a `!` comment that is not inside a character literal.
fn strip_inline_comment(s: &str) -> &str {
    let mut in_str: Option<char> = None;
    for (i, c) in s.char_indices() {
        match in_str {
            Some(q) => {
                if c == q {
                    in_str = None;
                }
            }
            None => match c {
                '\'' | '"' => in_str = Some(c),
                '!' => return &s[..i],
                _ => {}
            },
        }
    }
    s
}

/// Tokenize one assembled statement.
pub fn tokenize(text: &str, line: u32) -> Result<Vec<Tok>> {
    let span = Span::new(line);
    let b = text.as_bytes();
    // A token is rarely shorter than two characters with its blank.
    let mut toks = Vec::with_capacity(text.len() / 2 + 1);
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Equals);
                i += 1;
            }
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            ':' => {
                toks.push(Tok::Colon);
                i += 1;
            }
            '*' => {
                if b.get(i + 1) == Some(&b'*') {
                    toks.push(Tok::Pow);
                    i += 2;
                } else {
                    toks.push(Tok::Star);
                    i += 1;
                }
            }
            '/' => {
                if b.get(i + 1) == Some(&b'/') {
                    toks.push(Tok::Concat);
                    i += 2;
                } else {
                    toks.push(Tok::Slash);
                    i += 1;
                }
            }
            '\'' | '"' => {
                let quote = c;
                let mut s = String::new();
                let mut j = i + 1;
                loop {
                    match b.get(j) {
                        None => return Err(Error::lex(span, "unterminated character literal")),
                        Some(&q) if q as char == quote => {
                            if b.get(j + 1) == Some(&(quote as u8)) {
                                s.push(quote);
                                j += 2;
                            } else {
                                j += 1;
                                break;
                            }
                        }
                        Some(&q) => {
                            s.push(q as char);
                            j += 1;
                        }
                    }
                }
                toks.push(Tok::Str(s));
                i = j;
            }
            '.' => {
                // Dot-operator, logical literal, or a real like `.5`.
                if let Some((tok, len)) = lex_dot_word(&text[i..]) {
                    toks.push(tok);
                    i += len;
                } else if b.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                    let (tok, len) = lex_number(&text[i..], span)?;
                    toks.push(tok);
                    i += len;
                } else {
                    return Err(Error::lex(span, format!("stray `.` in `{text}`")));
                }
            }
            _ if c.is_ascii_digit() => {
                let (tok, len) = lex_number(&text[i..], span)?;
                toks.push(tok);
                i += len;
            }
            _ if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                let mut j = i + 1;
                while j < b.len() {
                    let d = b[j] as char;
                    if d.is_ascii_alphanumeric() || d == '_' || d == '$' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Ident(text[i..j].to_ascii_lowercase()));
                i = j;
            }
            _ => {
                return Err(Error::lex(span, format!("unexpected character `{c}`")));
            }
        }
    }
    Ok(toks)
}

/// Recognize `.EQ.` etc. and `.TRUE.`/`.FALSE.` at the start of `s`.
fn lex_dot_word(s: &str) -> Option<(Tok, usize)> {
    const WORDS: &[(&str, Tok)] = &[
        ("eq", Tok::Eq),
        ("ne", Tok::Ne),
        ("lt", Tok::Lt),
        ("le", Tok::Le),
        ("gt", Tok::Gt),
        ("ge", Tok::Ge),
        ("and", Tok::And),
        ("or", Tok::Or),
        ("not", Tok::Not),
        ("eqv", Tok::Eqv),
        ("neqv", Tok::Neqv),
        ("true", Tok::Logical(true)),
        ("false", Tok::Logical(false)),
    ];
    let rest = &s[1..];
    for (w, tok) in WORDS {
        if rest.len() > w.len()
            && rest[..w.len()].eq_ignore_ascii_case(w)
            && rest.as_bytes()[w.len()] == b'.'
        {
            // `.e.`-style: make sure longer words win (`.eqv.` vs `.eq.`),
            // guaranteed because the table is checked with exact-length
            // match against the dot terminator.
            return Some((tok.clone(), w.len() + 2));
        }
    }
    None
}

/// Lex an integer or real literal starting at the beginning of `s`.
/// Returns the token and consumed byte length.
fn lex_number(s: &str, span: Span) -> Result<(Tok, usize)> {
    let b = s.as_bytes();
    let mut j = 0usize;
    while j < b.len() && b[j].is_ascii_digit() {
        j += 1;
    }
    let mut is_real = false;
    let mut is_double = false;
    if j < b.len() && b[j] == b'.' {
        // Careful: `1.eq.2` — the dot may start an operator.
        if lex_dot_word(&s[j..]).is_none() {
            is_real = true;
            j += 1;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
        }
    }
    if j < b.len() && matches!(b[j], b'e' | b'E' | b'd' | b'D') {
        let mut k = j + 1;
        if k < b.len() && matches!(b[k], b'+' | b'-') {
            k += 1;
        }
        if k < b.len() && b[k].is_ascii_digit() {
            is_real = true;
            if matches!(b[j], b'd' | b'D') {
                is_double = true;
            }
            j = k;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
        }
    }
    let text = &s[..j];
    if is_real {
        let norm = text.replace(['d', 'D'], "e");
        let value: f64 =
            norm.parse().map_err(|_| Error::lex(span, format!("bad real literal `{text}`")))?;
        Ok((Tok::Real { value, is_double }, j))
    } else {
        let value: i64 = text
            .parse()
            .map_err(|_| Error::lex(span, format!("integer literal `{text}` out of range")))?;
        Ok((Tok::Int(value), j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Tok> {
        tokenize(s, 1).unwrap()
    }

    #[test]
    fn fixed_form_labels_and_continuation() {
        let src = "\
C comment card
      X = 1.0
     & + 2.0
  100 CONTINUE
";
        let lines = assemble_fixed_form(src).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].text, "X = 1.0 + 2.0");
        assert_eq!(lines[0].label, None);
        assert_eq!(lines[1].label, Some(100));
        assert_eq!(lines[1].text, "CONTINUE");
    }

    #[test]
    fn comment_cards_all_forms() {
        let src = "C a\nc b\n* c\n      X = 1 ! trailing\n";
        let lines = assemble_fixed_form(src).unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].text, "X = 1");
    }

    #[test]
    fn continuation_without_statement_errors() {
        let src = "     & + 2.0\n";
        assert!(assemble_fixed_form(src).is_err());
    }

    #[test]
    fn free_form_continuation_and_labels() {
        let src = "x = 1 + &\n    2\n10 continue\n";
        let lines = assemble_free_form(src).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].text, "x = 1 + 2");
        assert_eq!(lines[1].label, Some(10));
    }

    #[test]
    fn tokenizes_operators() {
        assert_eq!(
            toks("a = b ** 2 // c"),
            vec![
                Tok::Ident("a".into()),
                Tok::Equals,
                Tok::Ident("b".into()),
                Tok::Pow,
                Tok::Int(2),
                Tok::Concat,
                Tok::Ident("c".into()),
            ]
        );
    }

    #[test]
    fn tokenizes_dot_operators_and_reals() {
        assert_eq!(
            toks("IF (X .GE. 1.5E-2) Y = .TRUE."),
            vec![
                Tok::Ident("if".into()),
                Tok::LParen,
                Tok::Ident("x".into()),
                Tok::Ge,
                Tok::Real { value: 1.5e-2, is_double: false },
                Tok::RParen,
                Tok::Ident("y".into()),
                Tok::Equals,
                Tok::Logical(true),
            ]
        );
    }

    #[test]
    fn integer_dot_operator_ambiguity() {
        // `1.eq.2` must lex as Int(1) .eq. Int(2), not Real(1.0).
        assert_eq!(toks("1.eq.2"), vec![Tok::Int(1), Tok::Eq, Tok::Int(2)]);
        // But `1.5` is a real and `1.` is a real.
        assert_eq!(toks("1."), vec![Tok::Real { value: 1.0, is_double: false }]);
    }

    #[test]
    fn double_exponent_marks_double() {
        match &toks("1.5d0")[0] {
            Tok::Real { value, is_double } => {
                assert_eq!(*value, 1.5);
                assert!(is_double);
            }
            other => panic!("unexpected token {other:?}"),
        }
    }

    #[test]
    fn string_literals_with_doubled_quotes() {
        assert_eq!(toks("'it''s'"), vec![Tok::Str("it's".into())]);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'oops", 1).is_err());
    }

    #[test]
    fn leading_dot_real() {
        assert_eq!(toks(".5"), vec![Tok::Real { value: 0.5, is_double: false }]);
    }
}
