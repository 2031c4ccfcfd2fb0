//! Edit similarity (normalized Levenshtein distance), the paper's accuracy metric for
//! HumanEval code completion (§7.1).

/// Levenshtein distance between two sequences.
pub fn levenshtein<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, ai) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, bj) in b.iter().enumerate() {
            let cost = usize::from(ai != bj);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Edit similarity between two sequences: `1 - levenshtein / max(len)`, in `[0, 1]`.
/// Two empty sequences have similarity 1.0.
pub fn edit_similarity<T: PartialEq>(a: &[T], b: &[T]) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Edit similarity between two strings, computed over their characters.
#[cfg(test)]
pub fn edit_similarity_str(a: &str, b: &str) -> f64 {
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    edit_similarity(&ac, &bc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_distances() {
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
        assert_eq!(levenshtein(b"flaw", b"lawn"), 2);
        assert_eq!(levenshtein(b"abc", b"abc"), 0);
        assert_eq!(levenshtein(b"", b"abc"), 3);
        assert_eq!(levenshtein(b"abc", b""), 3);
    }

    #[test]
    fn similarity_bounds_and_identity() {
        assert_eq!(edit_similarity_str("hello", "hello"), 1.0);
        assert_eq!(edit_similarity_str("", ""), 1.0);
        assert_eq!(edit_similarity_str("abc", "xyz"), 0.0);
        let s = edit_similarity_str("kitten", "sitting");
        assert!((s - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = "def add(a, b): return a + b";
        let b = "def add(x, y): return x + y";
        assert!((edit_similarity_str(a, b) - edit_similarity_str(b, a)).abs() < 1e-12);
        assert!(edit_similarity_str(a, b) > 0.7);
    }

    #[test]
    fn works_on_token_id_sequences() {
        let a = [1u32, 2, 3, 4, 5];
        let b = [1u32, 2, 9, 4, 5];
        assert!((edit_similarity(&a, &b) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn insertion_only_difference() {
        let a = [1u32, 2, 3];
        let b = [1u32, 2, 3, 4, 5];
        assert!((edit_similarity(&a, &b) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn triangle_like_sanity() {
        // Similarity decreases as more tokens change.
        let base = [0u32, 1, 2, 3, 4, 5, 6, 7, 8, 9];
        let one_change = [0u32, 1, 2, 3, 99, 5, 6, 7, 8, 9];
        let five_changes = [0u32, 91, 92, 93, 94, 95, 6, 7, 8, 9];
        assert!(edit_similarity(&base, &one_change) > edit_similarity(&base, &five_changes));
    }
}
