//! Edge cases of the fixed-form lexer and the statement parser that the
//! unit tests inside the crate do not already cover: column rules,
//! continuation lines, Cedar Fortran loop forms with preambles and
//! postambles, and the diagnostics for malformed input.

use cedar_f77::ast::{DeclKind, Expr, LoopClass, StmtKind, Visibility};
use cedar_f77::{parse_free, parse_source};

// ---------------------------------------------------------------------
// fixed-form column rules
// ---------------------------------------------------------------------

#[test]
fn comment_lines_and_blank_lines_are_skipped() {
    let src = "
C     a classic comment line
*     an asterisk comment line
!     a bang comment line

      PROGRAM P
      X = 1.0
C     trailing comment
      END
";
    let f = parse_source(src).expect("comments must be ignored");
    assert_eq!(f.units.len(), 1);
    assert_eq!(f.units[0].body.len(), 1);
}

#[test]
fn continuation_lines_join_statements() {
    // Any non-blank, non-zero character in column 6 continues the
    // previous statement.
    let src = "
      PROGRAM P
      X = 1.0 +
     &    2.0 +
     1    3.0
      END
";
    let f = parse_source(src).expect("continuations must join");
    let StmtKind::Assign { rhs, .. } = &f.units[0].body[0].kind else { panic!() };
    // ((1 + 2) + 3): two Add nodes.
    let Expr::Bin(_, l, _) = rhs else { panic!("{rhs:?}") };
    assert!(matches!(&**l, Expr::Bin(..)));
}

#[test]
fn columns_past_72_stay_significant() {
    // Documented deviation from strict F77: the lexer does NOT discard
    // text beyond column 72 (the workload sources use the full width),
    // so an expression continuing past the card boundary still parses.
    let stmt = "      X = 1.0";
    let pad = " ".repeat(72 - stmt.len());
    let src = format!("\n      PROGRAM P\n{stmt}{pad}+ 2.0\n      END\n");
    let f = parse_source(&src).expect("text past column 72 is kept");
    let StmtKind::Assign { rhs, .. } = &f.units[0].body[0].kind else { panic!() };
    assert!(matches!(rhs, Expr::Bin(..)), "{rhs:?}");
}

#[test]
fn statement_labels_in_columns_1_to_5() {
    let src = "
      PROGRAM P
  100 X = 1.0
      GO TO 100
      END
";
    let f = parse_source(src).expect("labels must parse");
    assert_eq!(f.units[0].body[0].label, Some(100));
    assert!(matches!(f.units[0].body[1].kind, StmtKind::Goto { .. }));
}

#[test]
fn blanks_inside_keywords_are_insignificant() {
    // Fixed-form Fortran ignores blanks: `GO TO`, `END IF`, `ELSE IF`.
    let src = "
      PROGRAM P
      IF (X .GT. 0.0) THEN
        Y = 1.0
      ELSE IF (X .LT. 0.0) THEN
        Y = 2.0
      END IF
      GO TO 10
   10 CONTINUE
      END
";
    let f = parse_source(src).expect("blanked keywords");
    assert!(matches!(f.units[0].body[0].kind, StmtKind::If { .. }));
}

// ---------------------------------------------------------------------
// Cedar Fortran loop forms
// ---------------------------------------------------------------------

#[test]
fn cdoall_with_locals_preamble_and_loop_marker() {
    // Figure 3 of the paper: loop-local declarations, a preamble that
    // runs once per participant, then the LOOP marker.
    let src = "
      SUBROUTINE S(A, B, N)
      REAL A(N), B(N)
      CDOALL I = 1, N
        REAL T
        T = 0.0
      LOOP
        A(I) = B(I) + T
      END CDOALL
      END
";
    let f = parse_source(src).expect("cdoall with preamble");
    let StmtKind::Do { class, decls, preamble, body, .. } = &f.units[0].body[0].kind else {
        panic!()
    };
    assert_eq!(*class, LoopClass::CDoall);
    assert_eq!(decls.len(), 1);
    assert_eq!(preamble.len(), 1);
    assert_eq!(body.len(), 1);
}

#[test]
fn sdoall_with_postamble_after_endloop() {
    let src = "
      SUBROUTINE S(A, N, TOTAL)
      REAL A(N), TOTAL
      SDOALL I = 1, N
        REAL P
        P = 0.0
      LOOP
        P = P + A(I)
      ENDLOOP
        TOTAL = TOTAL + P
      END SDOALL
      END
";
    let f = parse_source(src).expect("sdoall with postamble");
    let StmtKind::Do { class, postamble, .. } = &f.units[0].body[0].kind else { panic!() };
    assert_eq!(*class, LoopClass::SDoall);
    assert_eq!(postamble.len(), 1);
}

#[test]
fn generic_doall_defaults_to_machine_wide() {
    let src = "
      SUBROUTINE S(A, N)
      REAL A(N)
      DOALL I = 1, N
        A(I) = 0.0
      END DOALL
      END
";
    let f = parse_source(src).expect("plain doall");
    let StmtKind::Do { class, .. } = &f.units[0].body[0].kind else { panic!() };
    assert_eq!(*class, LoopClass::XDoall);
}

#[test]
fn doacross_variants_parse() {
    for (kw, class) in [
        ("CDOACROSS", LoopClass::CDoacross),
        ("SDOACROSS", LoopClass::SDoacross),
        ("XDOACROSS", LoopClass::XDoacross),
    ] {
        let src = format!(
            "\n      SUBROUTINE S(A, N)\n      REAL A(N)\n      {kw} I = 2, N\n        A(I) = A(I-1)\n      END {kw}\n      END\n"
        );
        let f = parse_source(&src).unwrap_or_else(|e| panic!("{kw}: {e}"));
        let StmtKind::Do { class: c, .. } = &f.units[0].body[0].kind else { panic!() };
        assert_eq!(*c, class, "{kw}");
    }
}

#[test]
fn do_with_explicit_step() {
    let f = parse_free("subroutine s(a, n)\nreal a(n)\ndo i = n, 1, -2\na(i) = 0.0\nend do\nend\n")
        .unwrap();
    let StmtKind::Do { step, .. } = &f.units[0].body[0].kind else { panic!() };
    assert!(step.is_some());
}

#[test]
fn dowhile_parses() {
    let f =
        parse_free("subroutine s(x)\ndo while (x .gt. 1.0)\nx = x * 0.5\nend do\nend\n").unwrap();
    assert!(matches!(f.units[0].body[0].kind, StmtKind::DoWhile { .. }));
}

// ---------------------------------------------------------------------
// declarations
// ---------------------------------------------------------------------

#[test]
fn process_common_is_global() {
    let src = "
      SUBROUTINE S
      PROCESS COMMON /SHARED/ X, Y(10)
      X = 1.0
      END
";
    let f = parse_source(src).expect("process common");
    let decl = f.units[0]
        .decls
        .iter()
        .find_map(|d| match &d.kind {
            DeclKind::Common { block, process, .. } => Some((block.clone(), *process)),
            _ => None,
        })
        .expect("common decl present");
    assert_eq!(decl.0.as_deref(), Some("shared"));
    assert!(decl.1);
}

#[test]
fn global_and_cluster_visibility_decls() {
    let src = "
      SUBROUTINE S(N)
      GLOBAL G
      CLUSTER C
      REAL G(100), C(100)
      G(1) = 1.0
      END
";
    let f = parse_source(src).expect("global/cluster decls");
    let vis: Vec<Visibility> = f.units[0]
        .decls
        .iter()
        .filter_map(|d| match &d.kind {
            DeclKind::Visibility { vis, .. } => Some(*vis),
            _ => None,
        })
        .collect();
    assert!(vis.contains(&Visibility::Global));
    assert!(vis.contains(&Visibility::Cluster));
}

#[test]
fn blank_common_forms() {
    for decl in ["COMMON X, Y", "COMMON // X, Y"] {
        let src = format!("\n      SUBROUTINE S\n      {decl}\n      X = 1.0\n      END\n");
        let f = parse_source(&src).unwrap_or_else(|e| panic!("{decl}: {e}"));
        let is_blank = f.units[0]
            .decls
            .iter()
            .any(|d| matches!(&d.kind, DeclKind::Common { block: None, .. }));
        assert!(is_blank, "{decl} should be blank common");
    }
}

// ---------------------------------------------------------------------
// vector statements
// ---------------------------------------------------------------------

#[test]
fn strided_section_expression() {
    let f = parse_free("subroutine s(a, n)\nreal a(n)\na(1:n:2) = 0.0\nend\n").unwrap();
    let StmtKind::Assign { lhs, .. } = &f.units[0].body[0].kind else { panic!() };
    let sections = format!("{lhs:?}");
    assert!(sections.contains("Section"), "{sections}");
    assert!(sections.contains("stride: Some"), "{sections}");
}

#[test]
fn where_statement_parses() {
    let f = parse_free(
        "subroutine s(a, b, n)\nreal a(n), b(n)\nwhere (b(1:n) .gt. 0.0) a(1:n) = b(1:n)\nend\n",
    )
    .unwrap();
    assert!(matches!(f.units[0].body[0].kind, StmtKind::Where { .. }));
}

// ---------------------------------------------------------------------
// diagnostics
// ---------------------------------------------------------------------

#[test]
fn unclosed_do_is_an_error() {
    let err =
        parse_free("subroutine s(a, n)\nreal a(n)\ndo 10 i = 1, n\na(i) = 0.0\nend\n").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("10"), "should name the missing label: {msg}");
}

#[test]
fn mismatched_end_do_is_an_error() {
    assert!(parse_free("subroutine s\nx = 1.0\nend do\nend\n").is_err());
}

#[test]
fn assign_statement_is_rejected_with_unsupported() {
    let err = parse_free("subroutine s\nassign 10 to k\n10 continue\nend\n").unwrap_err();
    assert!(err.to_string().to_lowercase().contains("assign"));
}

#[test]
fn missing_then_is_an_error() {
    assert!(parse_free("subroutine s(x, y)\nif (x .gt. 0.0 then\ny = 1.0\nend if\nend\n").is_err());
}

#[test]
fn error_reports_line_number() {
    let err = parse_free("subroutine s\nx = (1.0\nend\n").unwrap_err();
    assert!(err.to_string().contains(':'), "span in message: {err}");
}
