//! XQuery function library over sequences.

use crate::ast::QExpr;
use crate::error::{Result, XQueryError};
use crate::eval::{Env, Evaluator};
use crate::item::{Item, Sequence};
use mhx_regex::Regex;

pub fn call(ev: &mut Evaluator<'_>, name: &str, args: &[QExpr], env: &Env) -> Result<Sequence> {
    // analyze-string mutates the KyGODDAG: handled before generic dispatch.
    if name == "analyze-string" {
        if args.len() != 2 {
            return Err(XQueryError::new("analyze-string($node, $pattern) takes 2 arguments"));
        }
        let node_seq = ev.eval(&args[0], env)?;
        let pattern = {
            let v = ev.eval(&args[1], env)?;
            one_string(ev, &v, "analyze-string pattern")?
        };
        let node = match node_seq.as_slice() {
            [Item::Node(n)] => *n,
            [Item::ONode(_)] => {
                return Err(XQueryError::new(
                    "analyze-string requires a KyGODDAG node, not a constructed node",
                ));
            }
            _ => return Err(XQueryError::new("analyze-string requires a single node")),
        };
        let mode = ev.opts.analyze_mode;
        let res = crate::analyze::analyze_string(ev.g.to_mut(), node, &pattern, mode)?;
        return Ok(vec![Item::Node(res)]);
    }

    let mut vals: Vec<Sequence> = Vec::with_capacity(args.len());
    for a in args {
        vals.push(ev.eval(a, env)?);
    }
    dispatch(ev, name, &vals, env)
}

fn arity(name: &str, vals: &[Sequence], lo: usize, hi: usize) -> Result<()> {
    if vals.len() < lo || vals.len() > hi {
        return Err(XQueryError::new(format!(
            "{name}() expects {lo}..{hi} arguments, got {}",
            vals.len()
        )));
    }
    Ok(())
}

fn one_string(ev: &Evaluator<'_>, seq: &[Item], what: &str) -> Result<String> {
    match seq {
        [] => Ok(String::new()),
        [item] => Ok(ev.item_string(item)),
        _ => Err(XQueryError::new(format!("{what}: expected a single item"))),
    }
}

fn one_number(ev: &Evaluator<'_>, seq: &[Item], what: &str) -> Result<f64> {
    match seq {
        [item] => Ok(ev.item_number(item)),
        _ => Err(XQueryError::new(format!("{what}: expected a single numeric item"))),
    }
}

fn string_arg_or_ctx(ev: &Evaluator<'_>, vals: &[Sequence], i: usize, env: &Env) -> Result<String> {
    match vals.get(i) {
        Some(seq) => one_string(ev, seq, "string argument"),
        None => match &env.focus {
            Some((item, _, _)) => Ok(ev.item_string(item)),
            None => Err(XQueryError::new("no context item for implicit argument")),
        },
    }
}

fn dispatch(ev: &mut Evaluator<'_>, name: &str, vals: &[Sequence], env: &Env) -> Result<Sequence> {
    let s1 = |ev: &Evaluator<'_>, vals: &[Sequence]| one_string(ev, &vals[0], name);
    Ok(match name {
        // ---- general accessors ----
        "string" => {
            arity(name, vals, 0, 1)?;
            vec![Item::Str(string_arg_or_ctx(ev, vals, 0, env)?)]
        }
        "data" => {
            arity(name, vals, 1, 1)?;
            vals[0].iter().map(|i| Item::Str(ev.item_string(i))).collect()
        }
        "number" => {
            arity(name, vals, 0, 1)?;
            let v = match vals.first() {
                Some(seq) => one_number(ev, seq, name).unwrap_or(f64::NAN),
                None => match &env.focus {
                    Some((item, _, _)) => ev.item_number(item),
                    None => return Err(XQueryError::new("no context item for number()")),
                },
            };
            vec![Item::Num(v)]
        }
        "name" | "local-name" => {
            arity(name, vals, 0, 1)?;
            let item = match vals.first() {
                Some(seq) => seq.first().cloned(),
                None => env.focus.as_ref().map(|(i, _, _)| i.clone()),
            };
            let n = match item {
                Some(Item::Node(n)) => ev.goddag().name(n).unwrap_or("").to_string(),
                Some(Item::ONode(o)) => ev.output_doc().name(o).unwrap_or("").to_string(),
                Some(_) => return Err(XQueryError::new("name() requires a node")),
                None => String::new(),
            };
            vec![Item::Str(n)]
        }
        // ---- focus ----
        "position" => {
            arity(name, vals, 0, 0)?;
            match &env.focus {
                Some((_, p, _)) => vec![Item::Num(*p as f64)],
                None => return Err(XQueryError::new("position() outside a predicate")),
            }
        }
        "last" => {
            arity(name, vals, 0, 0)?;
            match &env.focus {
                Some((_, _, s)) => vec![Item::Num(*s as f64)],
                None => return Err(XQueryError::new("last() outside a predicate")),
            }
        }
        // ---- sequences ----
        "count" => {
            arity(name, vals, 1, 1)?;
            vec![Item::Num(vals[0].len() as f64)]
        }
        "empty" => {
            arity(name, vals, 1, 1)?;
            vec![Item::Bool(vals[0].is_empty())]
        }
        "exists" => {
            arity(name, vals, 1, 1)?;
            vec![Item::Bool(!vals[0].is_empty())]
        }
        "reverse" => {
            arity(name, vals, 1, 1)?;
            let mut v = vals[0].clone();
            v.reverse();
            v
        }
        "distinct-values" => {
            arity(name, vals, 1, 1)?;
            let mut seen: Vec<String> = Vec::new();
            let mut out = Vec::new();
            for item in &vals[0] {
                let s = ev.item_string(item);
                if !seen.contains(&s) {
                    seen.push(s.clone());
                    out.push(Item::Str(s));
                }
            }
            out
        }
        "subsequence" => {
            arity(name, vals, 2, 3)?;
            let start = one_number(ev, &vals[1], name)?.round();
            let len = match vals.get(2) {
                Some(seq) => one_number(ev, seq, name)?.round(),
                None => f64::INFINITY,
            };
            let from = (start.max(1.0) - 1.0) as usize;
            let n = &vals[0];
            let until = if len.is_infinite() {
                n.len()
            } else {
                ((start + len - 1.0).max(0.0) as usize).min(n.len())
            };
            n.get(from.min(n.len())..until).unwrap_or(&[]).to_vec()
        }
        "insert-before" => {
            arity(name, vals, 3, 3)?;
            let pos = one_number(ev, &vals[1], name)?.round().max(1.0) as usize;
            let mut v = vals[0].clone();
            let at = (pos - 1).min(v.len());
            let mut out = v.split_off(at);
            v.extend(vals[2].clone());
            v.append(&mut out);
            v
        }
        "remove" => {
            arity(name, vals, 2, 2)?;
            let pos = one_number(ev, &vals[1], name)?.round() as usize;
            vals[0]
                .iter()
                .enumerate()
                .filter(|(i, _)| i + 1 != pos)
                .map(|(_, item)| item.clone())
                .collect()
        }
        "string-join" => {
            arity(name, vals, 1, 2)?;
            let sep = match vals.get(1) {
                Some(seq) => one_string(ev, seq, name)?,
                None => String::new(),
            };
            let parts: Vec<String> = vals[0].iter().map(|i| ev.item_string(i)).collect();
            vec![Item::Str(parts.join(&sep))]
        }
        // ---- strings ----
        "concat" => {
            if vals.len() < 2 {
                return Err(XQueryError::new("concat() needs at least two arguments"));
            }
            let mut s = String::new();
            for v in vals {
                s.push_str(&one_string(ev, v, name)?);
            }
            vec![Item::Str(s)]
        }
        "contains" => {
            arity(name, vals, 2, 2)?;
            vec![Item::Bool(s1(ev, vals)?.contains(&one_string(ev, &vals[1], name)?))]
        }
        "starts-with" => {
            arity(name, vals, 2, 2)?;
            vec![Item::Bool(s1(ev, vals)?.starts_with(&one_string(ev, &vals[1], name)?))]
        }
        "ends-with" => {
            arity(name, vals, 2, 2)?;
            vec![Item::Bool(s1(ev, vals)?.ends_with(&one_string(ev, &vals[1], name)?))]
        }
        "substring" => {
            arity(name, vals, 2, 3)?;
            let s = s1(ev, vals)?;
            let chars: Vec<char> = s.chars().collect();
            let start = one_number(ev, &vals[1], name)?.round();
            let len = match vals.get(2) {
                Some(seq) => one_number(ev, seq, name)?.round(),
                None => f64::INFINITY,
            };
            if start.is_nan() || len.is_nan() {
                return Ok(vec![Item::Str(String::new())]);
            }
            let from = (start - 1.0).max(0.0) as usize;
            let until = (start + len - 1.0).max(0.0);
            let until = if until.is_infinite() { chars.len() } else { until as usize };
            vec![Item::Str(chars[from.min(chars.len())..until.min(chars.len())].iter().collect())]
        }
        "substring-before" => {
            arity(name, vals, 2, 2)?;
            let s = s1(ev, vals)?;
            let p = one_string(ev, &vals[1], name)?;
            vec![Item::Str(s.find(&p).map(|i| s[..i].to_string()).unwrap_or_default())]
        }
        "substring-after" => {
            arity(name, vals, 2, 2)?;
            let s = s1(ev, vals)?;
            let p = one_string(ev, &vals[1], name)?;
            vec![Item::Str(s.find(&p).map(|i| s[i + p.len()..].to_string()).unwrap_or_default())]
        }
        "string-length" => {
            arity(name, vals, 0, 1)?;
            vec![Item::Num(string_arg_or_ctx(ev, vals, 0, env)?.chars().count() as f64)]
        }
        "normalize-space" => {
            arity(name, vals, 0, 1)?;
            let s = string_arg_or_ctx(ev, vals, 0, env)?;
            vec![Item::Str(s.split_whitespace().collect::<Vec<_>>().join(" "))]
        }
        "upper-case" => {
            arity(name, vals, 1, 1)?;
            vec![Item::Str(s1(ev, vals)?.to_uppercase())]
        }
        "lower-case" => {
            arity(name, vals, 1, 1)?;
            vec![Item::Str(s1(ev, vals)?.to_lowercase())]
        }
        "translate" => {
            arity(name, vals, 3, 3)?;
            let s = s1(ev, vals)?;
            let from: Vec<char> = one_string(ev, &vals[1], name)?.chars().collect();
            let to: Vec<char> = one_string(ev, &vals[2], name)?.chars().collect();
            vec![Item::Str(
                s.chars()
                    .filter_map(|c| match from.iter().position(|&f| f == c) {
                        Some(i) => to.get(i).copied(),
                        None => Some(c),
                    })
                    .collect(),
            )]
        }
        // ---- regex ----
        "matches" => {
            arity(name, vals, 2, 2)?;
            let s = s1(ev, vals)?;
            let re = compile(&one_string(ev, &vals[1], name)?)?;
            vec![Item::Bool(re.is_match(&s))]
        }
        "replace" => {
            arity(name, vals, 3, 3)?;
            let s = s1(ev, vals)?;
            let re = compile(&one_string(ev, &vals[1], name)?)?;
            vec![Item::Str(re.replace_all(&s, &one_string(ev, &vals[2], name)?))]
        }
        "tokenize" => {
            arity(name, vals, 2, 2)?;
            let s = s1(ev, vals)?;
            let re = compile(&one_string(ev, &vals[1], name)?)?;
            re.split(&s).into_iter().map(|t| Item::Str(t.to_string())).collect()
        }
        // ---- booleans ----
        "boolean" => {
            arity(name, vals, 1, 1)?;
            vec![Item::Bool(ev.ebv(&vals[0])?)]
        }
        "not" => {
            arity(name, vals, 1, 1)?;
            vec![Item::Bool(!ev.ebv(&vals[0])?)]
        }
        "true" => {
            arity(name, vals, 0, 0)?;
            vec![Item::Bool(true)]
        }
        "false" => {
            arity(name, vals, 0, 0)?;
            vec![Item::Bool(false)]
        }
        // ---- numerics ----
        "sum" => {
            arity(name, vals, 1, 1)?;
            vec![Item::Num(vals[0].iter().map(|i| ev.item_number(i)).sum())]
        }
        "avg" => {
            arity(name, vals, 1, 1)?;
            if vals[0].is_empty() {
                vec![]
            } else {
                let total: f64 = vals[0].iter().map(|i| ev.item_number(i)).sum();
                vec![Item::Num(total / vals[0].len() as f64)]
            }
        }
        "min" => {
            arity(name, vals, 1, 1)?;
            vals[0]
                .iter()
                .map(|i| ev.item_number(i))
                .fold(None, |acc: Option<f64>, x| Some(acc.map_or(x, |a| a.min(x))))
                .map(|v| vec![Item::Num(v)])
                .unwrap_or_default()
        }
        "max" => {
            arity(name, vals, 1, 1)?;
            vals[0]
                .iter()
                .map(|i| ev.item_number(i))
                .fold(None, |acc: Option<f64>, x| Some(acc.map_or(x, |a| a.max(x))))
                .map(|v| vec![Item::Num(v)])
                .unwrap_or_default()
        }
        "abs" => {
            arity(name, vals, 1, 1)?;
            vec![Item::Num(one_number(ev, &vals[0], name)?.abs())]
        }
        "floor" => {
            arity(name, vals, 1, 1)?;
            vec![Item::Num(one_number(ev, &vals[0], name)?.floor())]
        }
        "ceiling" => {
            arity(name, vals, 1, 1)?;
            vec![Item::Num(one_number(ev, &vals[0], name)?.ceil())]
        }
        "round" => {
            arity(name, vals, 1, 1)?;
            vec![Item::Num(one_number(ev, &vals[0], name)?.round())]
        }
        // ---- serialization ----
        "serialize" => {
            arity(name, vals, 1, 1)?;
            vec![Item::Str(crate::serialize::serialize_sequence(ev, &vals[0]))]
        }
        // ---- KyGODDAG extensions ----
        "root" => {
            arity(name, vals, 0, 0)?;
            vec![Item::Node(mhx_goddag::NodeId::Root)]
        }
        "leaves" => {
            arity(name, vals, 1, 1)?;
            let mut out = Vec::new();
            for item in &vals[0] {
                let Item::Node(n) = item else {
                    return Err(XQueryError::new("leaves() requires KyGODDAG nodes"));
                };
                out.extend(ev.goddag().leaves_of(*n).into_iter().map(Item::Node));
            }
            ev.sort_dedup_items(&mut out);
            out
        }
        "hierarchy" => {
            arity(name, vals, 1, 1)?;
            let h = match vals[0].first() {
                Some(Item::Node(n)) => {
                    n.hierarchy().map(|h| ev.goddag().hierarchy(h).name.clone()).unwrap_or_default()
                }
                _ => String::new(),
            };
            vec![Item::Str(h)]
        }
        "hierarchies" => {
            arity(name, vals, 0, 0)?;
            ev.goddag().hierarchies().map(|(_, h)| Item::Str(h.name.clone())).collect()
        }
        "leaf-count" => {
            arity(name, vals, 0, 0)?;
            vec![Item::Num(ev.goddag().leaf_count() as f64)]
        }
        _ => return Err(XQueryError::new(format!("unknown function {name}()"))),
    })
}

fn compile(pattern: &str) -> Result<Regex> {
    Regex::new(pattern).map_err(|e| XQueryError::new(format!("bad regular expression: {e}")))
}
