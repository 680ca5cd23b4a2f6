package simnet

// envelope is a pooled message header: the Message a receiver gets,
// plus the link and arrival number its destination's mailbox keeps
// while the message waits there.
type envelope struct {
	Message
	next    *envelope // the next pending message with the same tag
	arrival uint64    // arrival number at the destination
}

// mailbox holds the messages that have arrived at one node and wait
// for a receive. It keeps one list per pending tag, in an array sorted
// by tag, and each list holds its messages in arrival order, linked
// through their envelopes. A receive that names a tag binary-searches
// for its list and walks it only to the first source match; a
// wildcard-tag receive takes the earliest arrival among the lists'
// first source matches. Either way it gets the message a first-match
// scan over every pending message in arrival order would find, with no
// scan of other tags' messages and no shift of the ones behind it.
type mailbox struct {
	lists    []tagList // sorted by tag; none is empty
	pending  int       // messages held
	arrivals uint64    // messages delivered so far: the next arrival number
}

// tagList is a mailbox's pending messages with one tag, oldest first.
type tagList struct {
	tag        int
	head, tail *envelope
}

// search returns the index of the first list whose tag is not below
// tag. It is sort.Search written out, which would allocate a closure.
//
//lmovet:hotpath
func (b *mailbox) search(tag int) int {
	lo, hi := 0, len(b.lists)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.lists[mid].tag < tag {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// put files an arrived message at the tail of its tag's list.
//
//lmovet:hotpath
func (b *mailbox) put(e *envelope) {
	e.arrival = b.arrivals
	b.arrivals++
	b.pending++
	i := b.search(e.Tag)
	if i < len(b.lists) && b.lists[i].tag == e.Tag {
		b.lists[i].tail.next = e
		b.lists[i].tail = e
		return
	}
	l := tagList{tag: e.Tag, head: e, tail: e}
	if i == len(b.lists) {
		b.lists = append(b.lists, l)
		return
	}
	b.lists = append(b.lists, tagList{})
	copy(b.lists[i+1:], b.lists[i:])
	b.lists[i] = l
}

// first returns list i's oldest message from src (any sender for
// AnySource) and its predecessor in the list, or a nil message.
//
//lmovet:hotpath
func (b *mailbox) first(i, src int) (prev, e *envelope) {
	for e = b.lists[i].head; e != nil; prev, e = e, e.next {
		if src == AnySource || e.Src == src {
			return prev, e
		}
	}
	return nil, nil
}

// find locates the message a receive of (src, tag) gets: the earliest
// pending arrival that matches. It returns the message's list index,
// its predecessor in the list and the message, or a nil message. AnyTag
// matches the non-negative tags only, which sort last.
//
//lmovet:hotpath
func (b *mailbox) find(src, tag int) (i int, prev, e *envelope) {
	if tag != AnyTag {
		i = b.search(tag)
		if i == len(b.lists) || b.lists[i].tag != tag {
			return i, nil, nil
		}
		prev, e = b.first(i, src)
		return i, prev, e
	}
	for k := b.search(0); k < len(b.lists); k++ {
		if p, m := b.first(k, src); m != nil && (e == nil || m.arrival < e.arrival) {
			i, prev, e = k, p, m
		}
	}
	return i, prev, e
}

// take removes and returns the message a receive of (src, tag) gets,
// or nil when no pending message matches.
//
//lmovet:hotpath
func (b *mailbox) take(src, tag int) *envelope {
	i, prev, e := b.find(src, tag)
	if e == nil {
		return nil
	}
	l := &b.lists[i]
	if prev == nil {
		l.head = e.next
	} else {
		prev.next = e.next
	}
	if l.tail == e {
		l.tail = prev
	}
	e.next = nil
	b.pending--
	if l.head == nil {
		// An emptied list holds no pointers, so only a shift leaves a
		// slot to clear.
		last := len(b.lists) - 1
		if i < last {
			copy(b.lists[i:], b.lists[i+1:])
			b.lists[last] = tagList{}
		}
		b.lists = b.lists[:last]
	}
	return e
}
