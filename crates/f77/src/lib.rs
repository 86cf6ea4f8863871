#![warn(missing_docs)]
//! Fortran 77 front end for the Cedar restructurer.
//!
//! This crate parses the input dialect of the Cedar Fortran translation
//! system described in *Restructuring Fortran Programs for Cedar*
//! (Eigenmann, Hoeflinger, Jaxon, Li, Padua; ICPP 1991):
//!
//! * fixed-form Fortran 77 (comment cards, labels in columns 1–5,
//!   continuation in column 6),
//! * the Fortran 90 vector subset the restructurer accepts as input
//!   (array sections `a(i:j:k)`, whole-array expressions, `WHERE`),
//! * the MIL-STD-1753 `DO WHILE` / `END DO` extensions (accepted by the
//!   1988 KAP the paper's restructurer is based on), and
//! * the **Cedar Fortran** output dialect of the restructurer
//!   (`CDOALL`/`SDOALL`/`XDOALL`/`*DOACROSS` loops with loop-local
//!   declarations and preambles, `GLOBAL`/`CLUSTER`/`PROCESS COMMON`
//!   visibility declarations), so that restructurer output can be parsed
//!   back for round-trip testing.
//!
//! The entry points are [`parse_source`] (a whole source file of program
//! units) and [`parse_free`] (the same grammar with free-form line
//! handling, convenient in tests).
//!
//! # Dialect restrictions
//!
//! The classic Fortran 66/77 features that would require a token-free
//! scanner are not supported: blanks are significant (`DO10I=1,10` must be
//! written `DO 10 I = 1, 10`), Hollerith constants are rejected, and
//! variables may not be named after statement keywords. Arithmetic IF,
//! computed GOTO, and `ASSIGN` are parsed and reported as unsupported.
//! All workloads shipped in `cedar-workloads` are written in this dialect.

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod span;
pub mod token;

pub use ast::*;
pub use error::{Error, Result};
pub use span::Span;

/// Parse a fixed-form Fortran 77 / Cedar Fortran source file into a list
/// of program units: the file of [`parse_source_recovering`] when it is
/// clean, its first diagnostic otherwise.
pub fn parse_source(src: &str) -> Result<SourceFile> {
    parse_source_recovering(src).into_result()
}

/// Parse free-form source: every physical line is one statement, `&` at
/// end of line continues, `!` starts a comment. Labels are a leading
/// integer token. Useful for tests and embedded snippets. Like
/// [`parse_source`], this is [`parse_free_recovering`] cut to its first
/// diagnostic.
pub fn parse_free(src: &str) -> Result<SourceFile> {
    parse_free_recovering(src).into_result()
}

/// The result of a recovering parse: every program unit that could be
/// built plus every diagnostic encountered along the way.
///
/// Produced by [`parse_source_recovering`] / [`parse_free_recovering`].
/// When `errors` is empty the file is what the strict entry points
/// return; otherwise `file` holds a best-effort partial parse
/// (statements and units that failed are skipped).
#[derive(Debug)]
pub struct ParseOutcome {
    /// Units recovered from the parts of the file that parsed.
    pub file: SourceFile,
    /// All diagnostics: lexical errors first (collected while tokenizing
    /// each logical line), then parser diagnostics in detection order.
    pub errors: Vec<Error>,
}

impl ParseOutcome {
    fn into_result(self) -> Result<SourceFile> {
        match self.errors.into_iter().next() {
            None => Ok(self.file),
            Some(e) => Err(e),
        }
    }
}

/// Parse fixed-form source with statement-boundary recovery: instead of
/// stopping at the first error like [`parse_source`], collect a
/// diagnostic per offending statement and keep going, so one run reports
/// every problem in the file.
pub fn parse_source_recovering(src: &str) -> ParseOutcome {
    match lexer::assemble_fixed_form(src) {
        Ok(lines) => parse_lines_recovering(lines),
        Err(e) => ParseOutcome { file: SourceFile { units: Vec::new() }, errors: vec![e] },
    }
}

/// Parse free-form source with statement-boundary recovery (the
/// recovering counterpart of [`parse_free`]).
pub fn parse_free_recovering(src: &str) -> ParseOutcome {
    match lexer::assemble_free_form(src) {
        Ok(lines) => parse_lines_recovering(lines),
        Err(e) => ParseOutcome { file: SourceFile { units: Vec::new() }, errors: vec![e] },
    }
}

fn parse_lines_recovering(lines: Vec<lexer::LogicalLine>) -> ParseOutcome {
    let mut errors = Vec::new();
    let mut stmts = Vec::with_capacity(lines.len());
    for line in &lines {
        match lexer::tokenize(&line.text, line.line) {
            Ok(toks) => {
                if !toks.is_empty() {
                    stmts.push(parser::RawStmt {
                        label: line.label,
                        tokens: toks,
                        line: line.line,
                    });
                }
            }
            // A statement that does not even tokenize is dropped whole;
            // the parser resynchronizes at the next logical line.
            Err(e) => errors.push(e),
        }
    }
    let (file, mut parse_errors) = parser::parse_units_recovering(stmts);
    errors.append(&mut parse_errors);
    ParseOutcome { file, errors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let src = "
      PROGRAM MAIN
      INTEGER I
      I = 1
      END
";
        let f = parse_source(src).unwrap();
        assert_eq!(f.units.len(), 1);
        assert_eq!(f.units[0].name, "main");
    }

    #[test]
    fn recovery_reports_multiple_diagnostics_per_file() {
        // Three independent problems: a lexical error (stray `?`), a
        // malformed assignment, and an unrecognized statement. Strict
        // parsing stops at the first; the recovering parse reports all
        // three and still builds the unit around them.
        let src = "
program p
x = 1.0 ?
y = = 2.0
frobnicate the loop
z = 3.0
end
";
        let out = parse_free_recovering(src);
        assert_eq!(out.errors.len(), 3, "diagnostics: {:?}", out.errors);
        // Every diagnostic carries the line it was detected on.
        let lines: Vec<u32> = out.errors.iter().map(|e| e.span.line).collect();
        assert_eq!(lines, vec![3, 4, 5]);
        // The unit survives with the statements that did parse.
        assert_eq!(out.file.units.len(), 1);
        assert_eq!(out.file.units[0].body.len(), 1); // only `z = 3.0` survives
                                                     // Strict parsing reports only the first problem.
        let strict = parse_free(src).unwrap_err();
        assert_eq!(strict.span.line, 3);
    }

    #[test]
    fn recovery_resyncs_at_next_unit() {
        // A broken subroutine header loses that unit, but parsing
        // resynchronizes past its END and the next unit still parses.
        let src = "
subroutine 42bad(a)
x = 1.0
end
subroutine good(a, n)
real a(n)
a(1) = 1.0
end
";
        let out = parse_free_recovering(src);
        assert!(!out.errors.is_empty());
        assert_eq!(out.file.units.len(), 1);
        assert_eq!(out.file.units[0].name, "good");
    }

    #[test]
    fn recovery_reports_truncated_file_once() {
        let src = "
program p
do i = 1, 10
x = 1.0
";
        let out = parse_free_recovering(src);
        assert_eq!(out.errors.len(), 1, "diagnostics: {:?}", out.errors);
        // The partial unit still carries the loop body parsed so far.
        assert_eq!(out.file.units.len(), 1);
    }

    #[test]
    fn strict_fixed_form_reports_the_first_of_several_diagnostics() {
        let src = "
      PROGRAM P
      X = 1.0
      Y = = 2.0
      FROBNICATE THE LOOP
      END
";
        let out = parse_source_recovering(src);
        assert_eq!(out.errors.len(), 2, "diagnostics: {:?}", out.errors);
        let strict = parse_source(src).unwrap_err();
        assert_eq!(strict.span.line, 4);
        assert_eq!(strict.to_string(), out.errors[0].to_string());
    }

    #[test]
    fn a_partial_parse_is_never_returned_as_clean() {
        // The recovering parse salvages `good` after the broken unit
        // and the unterminated one; the strict entry points still fail.
        let broken_unit = "
subroutine 42bad(a)
end
subroutine good(a)
a = 1.0
end
";
        assert_eq!(parse_free_recovering(broken_unit).file.units.len(), 1);
        assert_eq!(parse_free(broken_unit).unwrap_err().span.line, 2);
        let missing_end = "
program p
do i = 1, 10
x = 1.0
";
        assert_eq!(parse_free_recovering(missing_end).file.units.len(), 1);
        assert!(parse_free(missing_end).is_err());
    }

    #[test]
    fn recovery_is_identity_on_clean_source() {
        let src = "
program p
real a(10)
do i = 1, 10
a(i) = i * 2.0
end do
end
";
        let out = parse_free_recovering(src);
        assert!(out.errors.is_empty(), "diagnostics: {:?}", out.errors);
        let strict = parse_free(src).unwrap();
        assert_eq!(format!("{:?}", out.file), format!("{strict:?}"));
    }

    #[test]
    fn free_form_matches_fixed_form() {
        let fixed = "
      SUBROUTINE S(A, N)
      REAL A(N)
      DO 10 I = 1, N
      A(I) = A(I) + 1.0
   10 CONTINUE
      END
";
        let free = "
subroutine s(a, n)
real a(n)
do 10 i = 1, n
a(i) = a(i) + 1.0
10 continue
end
";
        let a = parse_source(fixed).unwrap();
        let b = parse_free(free).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
