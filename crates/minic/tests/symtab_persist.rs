//! Round-trip the symbol table of a real compiled program through its
//! text serialization and check that analysis-relevant queries agree.

use minic::{compile_and_link, CompileOptions, SymbolTable};

const SRC: &str = r#"
extern char *malloc(long nbytes);
typedef long cost_t;
struct arc { cost_t cost; long ident; };
struct node {
    long number;
    struct node *pred;
    struct arc *basic_arc;
    cost_t potential;
};
long counter;
long table[8];
long helper(struct node *n) {
    return n->basic_arc->cost + n->potential;
}
long main() {
    struct node *n = (struct node*)malloc(sizeof(struct node));
    n->basic_arc = (struct arc*)malloc(sizeof(struct arc));
    n->basic_arc->cost = 7;
    n->potential = 35;
    counter = helper(n);
    table[3] = counter;
    return counter % 256;
}
"#;

#[test]
fn symbol_table_round_trips() {
    let program = compile_and_link(&[("persist.c", SRC)], CompileOptions::profiling()).unwrap();
    let t = &program.syms;
    let path = std::env::temp_dir().join(format!("syms_{}.txt", std::process::id()));
    t.save(&path).unwrap();
    let loaded = SymbolTable::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded.text_base, t.text_base);
    assert_eq!(loaded.modules.len(), t.modules.len());
    assert_eq!(loaded.funcs.len(), t.funcs.len());
    assert_eq!(loaded.pc_meta.len(), t.pc_meta.len());
    assert_eq!(loaded.structs.len(), t.structs.len());
    assert_eq!(loaded.globals.len(), t.globals.len());

    // Module flags and source survive.
    for (a, b) in loaded.modules.iter().zip(&t.modules) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.hwcprof, b.hwcprof);
        assert_eq!(a.dwarf, b.dwarf);
        assert_eq!(a.source, b.source);
    }

    // Per-PC queries agree everywhere.
    let end = t.text_base + 4 * t.pc_meta.len() as u64;
    let mut pc = t.text_base;
    while pc < end {
        assert_eq!(loaded.line_at(pc), t.line_at(pc), "line at {pc:#x}");
        assert_eq!(
            loaded.is_branch_target(pc),
            t.is_branch_target(pc),
            "bt at {pc:#x}"
        );
        assert_eq!(
            loaded.meta_at(pc).map(|m| &m.memdesc),
            t.meta_at(pc).map(|m| &m.memdesc),
            "desc at {pc:#x}"
        );
        assert_eq!(
            loaded.func_at(pc).map(|f| &f.name),
            t.func_at(pc).map(|f| &f.name)
        );
        pc += 4;
    }

    // Struct layouts for the Figure 7 view.
    let n0 = t.struct_by_name("node").unwrap();
    let n1 = loaded.struct_by_name("node").unwrap();
    assert_eq!(n0.size, n1.size);
    for (a, b) in n0.fields.iter().zip(&n1.fields) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.offset, b.offset);
        assert_eq!(a.type_desc, b.type_desc);
    }

    // Globals.
    assert_eq!(loaded.global_addr("counter"), t.global_addr("counter"));
    assert_eq!(loaded.global_addr("table"), t.global_addr("table"));
}

#[test]
fn parse_reads_what_load_reads() {
    let program = compile_and_link(&[("persist.c", SRC)], CompileOptions::profiling()).unwrap();
    let path = std::env::temp_dir().join(format!("syms_parse_{}.txt", std::process::id()));
    program.syms.save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let loaded = SymbolTable::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let parsed = SymbolTable::parse(&text).unwrap();
    assert_eq!(format!("{parsed:?}"), format!("{loaded:?}"));

    let invalid = |text: &str| SymbolTable::parse(text).unwrap_err().kind();
    assert_eq!(invalid(""), std::io::ErrorKind::InvalidData);
    assert_eq!(
        invalid("simsparc-syms text_base=0x100000000\nBOGUS 1"),
        std::io::ErrorKind::InvalidData
    );
}
