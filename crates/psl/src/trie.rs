//! The reversed-label trie every lookup walks.
//!
//! One node per label suffix of a rule or key (`nz`, `org.nz`, ...),
//! hashed by `(parent node, label)` into one open-addressed table, so a
//! walk from the right costs one probe per label and allocates nothing.
//! Because every ancestor of a rule or key is a node, the first label
//! with no node ends all probing: nothing deeper can match.

/// "No node" / "no key".
pub(crate) const NONE: u32 = u32::MAX;
const ROOT: u32 = 0;

/// Rule kinds stored at a node, as bit flags.
pub(crate) const NORMAL: u8 = 1;
/// `*.ck` is stored at the `ck` node.
pub(crate) const WILDCARD: u8 = 2;
/// `!www.ck` is stored at the `www.ck` node.
pub(crate) const EXCEPTION: u8 = 4;

#[derive(Debug, Clone)]
struct Node {
    parent: u32,
    /// Byte length of the whole suffix the node spells.
    len: u32,
    hash: u64,
    /// The node's own label, ASCII-lowercase.
    label: Box<str>,
    rules: u8,
    /// Index of the caller's value for this exact suffix, or [`NONE`].
    key: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct Trie {
    /// `nodes[0]` is the root: the empty suffix.
    nodes: Vec<Node>,
    /// Node indices, or [`NONE`]; a power of two at most half full.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a hash's top bits pick its home slot.
    shift: u32,
    /// Distinct rules stored (one per set flag bit).
    rules: usize,
}

/// What one walk found.
pub(crate) struct Found<'n> {
    /// `(suffix_labels, registrable domain)` per the PSL algorithm, or
    /// `None` when the name has no labels or an empty one.
    pub psl: Option<(usize, Option<&'n str>)>,
    /// Key index stored at the registrable domain, or [`NONE`].
    pub exact: u32,
    /// Key index of the deepest keyed label suffix, or [`NONE`].
    pub deepest: u32,
}

impl Default for Trie {
    fn default() -> Trie {
        let root = Node { parent: NONE, len: 0, hash: 0, label: "".into(), rules: 0, key: NONE };
        Trie { nodes: vec![root], slots: vec![NONE; 8], shift: 64 - 3, rules: 0 }
    }
}

/// FxHash over the parent index and the ASCII-lowercased label bytes;
/// the final multiply leaves the top bits well mixed.
fn hash(parent: u32, label: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = u64::from(parent).wrapping_add(1).wrapping_mul(K);
    for &c in label {
        h = (h.rotate_left(5) ^ u64::from(c.to_ascii_lowercase())).wrapping_mul(K);
    }
    h
}

impl Trie {
    /// Number of distinct rules stored.
    pub fn rules(&self) -> usize {
        self.rules
    }

    /// Stores a rule of `kind` at the node spelling `suffix`.
    pub fn add_rule(&mut self, suffix: &str, kind: u8) {
        let node = self.insert(suffix);
        let rules = &mut self.nodes[node as usize].rules;
        if *rules & kind == 0 {
            *rules |= kind;
            self.rules += 1;
        }
    }

    /// The key index of the node spelling `suffix` ([`NONE`] until
    /// set).
    pub fn key_mut(&mut self, suffix: &str) -> &mut u32 {
        let node = self.insert(suffix);
        &mut self.nodes[node as usize].key
    }

    /// The node spelling `suffix` (labels split at every dot, empty
    /// ones included), created with all its ancestors if missing.
    fn insert(&mut self, suffix: &str) -> u32 {
        let mut node = ROOT;
        for label in suffix.rsplit('.') {
            node = match self.child(node, label.as_bytes()) {
                Some(c) => c,
                None => self.push(node, label),
            };
        }
        node
    }

    fn push(&mut self, parent: u32, label: &str) -> u32 {
        let id = self.nodes.len() as u32;
        let len = match parent {
            ROOT => label.len(),
            p => self.nodes[p as usize].len as usize + 1 + label.len(),
        };
        self.nodes.push(Node {
            parent,
            len: len as u32,
            hash: hash(parent, label.as_bytes()),
            label: label.to_ascii_lowercase().into(),
            rules: 0,
            key: NONE,
        });
        if self.nodes.len() * 2 > self.slots.len() {
            let cap = self.slots.len() * 2;
            self.slots = vec![NONE; cap];
            self.shift = 64 - cap.trailing_zeros();
            for i in 1..self.nodes.len() as u32 {
                self.place(i);
            }
        } else {
            self.place(id);
        }
        id
    }

    fn place(&mut self, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = (self.nodes[id as usize].hash >> self.shift) as usize;
        while self.slots[i] != NONE {
            i = (i + 1) & mask;
        }
        self.slots[i] = id;
    }

    /// The child of `parent` labelled `label` (ASCII case-insensitive).
    fn child(&self, parent: u32, label: &[u8]) -> Option<u32> {
        let h = hash(parent, label);
        let mask = self.slots.len() - 1;
        let mut i = (h >> self.shift) as usize;
        loop {
            let s = self.slots[i];
            if s == NONE {
                return None;
            }
            let n = &self.nodes[s as usize];
            if n.hash == h && n.parent == parent && n.label.as_bytes().eq_ignore_ascii_case(label) {
                return Some(s);
            }
            i = (i + 1) & mask;
        }
    }

    /// One walk over `name` from the right, label by label.
    ///
    /// Trailing dots are trimmed. While the trie holds the suffix walked
    /// so far, each label is one probe: it records the deepest normal,
    /// wildcard and exception rule and the deepest key. After that only
    /// the label boundaries are scanned, for the empty-label check and
    /// the registrable domain's start. The registrable domain is then
    /// the prevailing rule's suffix plus one label, exactly as the
    /// publicsuffix.org algorithm defines it.
    pub fn walk<'n>(&self, name: &'n str) -> Found<'n> {
        let name = name.trim_end_matches('.');
        let b = name.as_bytes();
        let mut found = Found { psl: None, exact: NONE, deepest: NONE };
        if b.is_empty() {
            return found;
        }
        // `node` is the deepest node reached, at depth `reached`;
        // `past` holds where the two labels beyond it start.
        let (mut node, mut reached, mut alive) = (ROOT, 0usize, true);
        let (mut normal, mut wild, mut exc) = (0usize, 0usize, None);
        let mut past = [0usize; 2];
        let (mut depth, mut empty, mut end) = (0usize, false, b.len());
        loop {
            let lo = b[..end].iter().rposition(|&c| c == b'.').map_or(0, |i| i + 1);
            depth += 1;
            empty |= lo == end;
            if alive {
                match self.child(node, &b[lo..end]) {
                    Some(c) => {
                        (node, reached) = (c, depth);
                        let n = &self.nodes[c as usize];
                        if n.rules & NORMAL != 0 {
                            normal = depth;
                        }
                        // The star needs a label of its own.
                        if n.rules & WILDCARD != 0 && lo > 0 {
                            wild = depth + 1;
                        }
                        if n.rules & EXCEPTION != 0 {
                            exc = Some(depth - 1);
                        }
                        if n.key != NONE {
                            found.deepest = n.key;
                        }
                    }
                    None => alive = false,
                }
            }
            if !alive && depth - reached <= 2 {
                past[depth - reached - 1] = lo;
            }
            if lo == 0 {
                break;
            }
            end = lo - 1;
        }
        if empty {
            return found;
        }
        // An exception beats every other rule; the implicit `*` rule
        // is the floor; a pathological `!com` clamps up to one label.
        let suffix_labels = exc.unwrap_or(normal.max(wild).max(1)).clamp(1, depth);
        let rd = suffix_labels + 1;
        let registrable = if rd > depth {
            None
        } else if rd <= reached {
            let mut at = node;
            for _ in rd..reached {
                at = self.nodes[at as usize].parent;
            }
            let n = &self.nodes[at as usize];
            found.exact = n.key;
            Some(&name[b.len() - n.len as usize..])
        } else {
            Some(&name[past[rd - reached - 1]..])
        };
        found.psl = Some((suffix_labels, registrable));
        found
    }
}
