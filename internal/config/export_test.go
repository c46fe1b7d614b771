package config

// ParseIn parses text in the named dialect, whatever DetectVendor would say.
func ParseIn(vendor, name, text string) (*Device, error) { return dialectOf(vendor).parse(name, text) }

// FormWords is every literal word of the named dialect's statement forms,
// its section terminator and its removal word.
func FormWords(vendor string) []string {
	dl := dialectOf(vendor)
	words := []string{dl.end, dl.no}
	var walk func(es []elem)
	walk = func(es []elem) {
		for _, e := range es {
			words = append(words, e.words...)
			walk(e.sub)
			for _, alt := range e.alts {
				walk(alt)
			}
		}
	}
	for _, es := range dl.es {
		walk(es)
	}
	return words
}
